package analysis

import (
	"fmt"
)

// QuestionReport is the complete per-question analysis: the §4.1.1 number
// representation (PH, PL, D, P), the §4.1.2 signal representation (option
// table, rules, statuses, light signal), and the distractor profile.
type QuestionReport struct {
	// Number is the question's 1-based position in the exam ("No" in the
	// paper's number-representation table).
	Number    int
	ProblemID string

	PH float64 // higher-group proportion correct
	PL float64 // lower-group proportion correct
	D  float64 // Item Discrimination Index, PH-PL
	P  float64 // Item Difficulty Index, (PH+PL)/2

	// OverallP is the simple whole-class Item Difficulty Index P = R/N of
	// §3.3 III, computed over all students (not just the groups).
	OverallP float64

	Table       *OptionTable
	Rules       [4]RuleResult
	Statuses    []Status
	Signal      Signal
	Distractors []Distractor
}

// MatchedRules returns the IDs of the rules that fired, in order.
func (q *QuestionReport) MatchedRules() []RuleID {
	var out []RuleID
	for _, r := range q.Rules {
		if r.Matched {
			out = append(out, r.Rule)
		}
	}
	return out
}

// ExamAnalysis bundles the per-question reports with the group split used to
// produce them.
type ExamAnalysis struct {
	ExamID    string
	Groups    Groups
	Questions []*QuestionReport
}

// Question returns the report for the given problem ID, or nil.
func (a *ExamAnalysis) Question(problemID string) *QuestionReport {
	for _, q := range a.Questions {
		if q.ProblemID == problemID {
			return q
		}
	}
	return nil
}

// CountBySignal tallies questions per signal colour.
func (a *ExamAnalysis) CountBySignal() map[Signal]int {
	out := make(map[Signal]int, 3)
	for _, q := range a.Questions {
		out[q.Signal]++
	}
	return out
}

// Options configures Analyze.
type Options struct {
	// GroupFraction is the upper/lower split fraction; zero means the
	// paper's default of 25%.
	GroupFraction float64
}

// Analyze runs the full single-question analysis model over an exam result.
// Problems that are not choice-style (no option columns) still receive
// number-representation statistics; their option-dependent fields are left
// zero and no rules are evaluated.
func Analyze(e *ExamResult, opts Options) (*ExamAnalysis, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return analyze(e, newMatrix(e), opts.GroupFraction)
}

// analyze is Analyze over a validated result and its matrix; a zero
// fraction means DefaultGroupFraction.
func analyze(e *ExamResult, m *matrix, fraction float64) (*ExamAnalysis, error) {
	if fraction == 0 {
		fraction = DefaultGroupFraction
	}
	groups, err := SplitGroups(e, fraction)
	if err != nil {
		return nil, err
	}
	high, low := m.rowsOf(groups.High), m.rowsOf(groups.Low)
	out := &ExamAnalysis{
		ExamID:    e.ExamID,
		Groups:    groups,
		Questions: make([]*QuestionReport, 0, len(e.Problems)),
	}
	for i, p := range e.Problems {
		col := m.column(p.ID)
		q := &QuestionReport{
			Number:    i + 1,
			ProblemID: p.ID,
		}
		q.OverallP = overallDifficulty(col, len(e.Students))

		if p.CorrectKey() != "" {
			table, err := optionTable(p, col, high, low)
			if err != nil {
				return nil, fmt.Errorf("analysis: question %d: %w", i+1, err)
			}
			q.Table = table
			q.PH = table.PH()
			q.PL = table.PL()
			q.D = table.Discrimination()
			q.P = table.Difficulty()
			q.Rules = EvaluateRules(table)
			q.Statuses = StatusesFor(q.Rules)
			q.Signal = EvaluateSignal(q.D, q.Rules)
			q.Distractors = AnalyzeDistraction(table)
		} else {
			// Non-choice problems: derive PH/PL from credit directly.
			q.PH = groupProportion(col, high)
			q.PL = groupProportion(col, low)
			q.D = q.PH - q.PL
			q.P = (q.PH + q.PL) / 2
			q.Signal = EvaluateSignal(q.D, q.Rules)
		}
		out.Questions = append(out.Questions, q)
	}
	return out, nil
}

// overallDifficulty is §3.3 III: P = R/N over the whole class, from the
// problem's matrix column.
func overallDifficulty(col []*Response, classSize int) float64 {
	if classSize == 0 {
		return 0
	}
	right := 0
	for _, r := range col {
		if r != nil && r.Correct() {
			right++
		}
	}
	return float64(right) / float64(classSize)
}

// groupProportion is the share of a group, given as matrix rows, whose
// response in col earned full credit.
func groupProportion(col []*Response, rows []int) float64 {
	if len(rows) == 0 {
		return 0
	}
	right := 0
	for _, row := range rows {
		if r := cell(col, row); r != nil && r.Correct() {
			right++
		}
	}
	return float64(right) / float64(len(rows))
}
