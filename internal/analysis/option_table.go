package analysis

import (
	"fmt"
	"slices"
	"sort"

	"mineassess/internal/item"
)

// OptionTable is the paper's Table 1 problem-attribute table for one
// question: per option, how many students of the high score group and the
// low score group selected it. HA in the paper is High["A"], LA is Low["A"],
// and so on.
type OptionTable struct {
	ProblemID string
	// Keys holds the option keys in presentation order (e.g. A..E).
	Keys []string
	// High and Low count selections per option key.
	High map[string]int
	Low  map[string]int
	// CorrectKey is the problem's correct option.
	CorrectKey string
	// HighSize and LowSize are the group sizes (students who sat the
	// question, whether or not they answered it).
	HighSize, LowSize int
	// HighUnanswered/LowUnanswered count group members who skipped the
	// question; they appear in no option column.
	HighUnanswered, LowUnanswered int
}

// HS returns the paper's HS = HA+HB+...+HE: the number of high-group
// students who selected any option.
func (t *OptionTable) HS() int {
	sum := 0
	for _, k := range t.Keys {
		sum += t.High[k]
	}
	return sum
}

// LS returns LS = LA+LB+...+LE for the low group.
func (t *OptionTable) LS() int {
	sum := 0
	for _, k := range t.Keys {
		sum += t.Low[k]
	}
	return sum
}

// HighMaxMin returns HM = MAX(HA..HE) and Hm = min(HA..HE) over the option
// columns (Rule 4).
func (t *OptionTable) HighMaxMin() (hm, hmin int) {
	return maxMin(t.High, t.Keys)
}

// LowMaxMin returns LM = MAX(LA..LE) and Lm = min(LA..LE) (Rule 3).
func (t *OptionTable) LowMaxMin() (lm, lmin int) {
	return maxMin(t.Low, t.Keys)
}

func maxMin(counts map[string]int, keys []string) (maxC, minC int) {
	if len(keys) == 0 {
		return 0, 0
	}
	maxC = counts[keys[0]]
	minC = counts[keys[0]]
	for _, k := range keys[1:] {
		c := counts[k]
		if c > maxC {
			maxC = c
		}
		if c < minC {
			minC = c
		}
	}
	return maxC, minC
}

// PH returns the proportion of the high group answering correctly. Skipped
// questions count as incorrect, matching how a scored exam treats them.
func (t *OptionTable) PH() float64 {
	if t.HighSize == 0 {
		return 0
	}
	return float64(t.High[t.CorrectKey]) / float64(t.HighSize)
}

// PL returns the proportion of the low group answering correctly.
func (t *OptionTable) PL() float64 {
	if t.LowSize == 0 {
		return 0
	}
	return float64(t.Low[t.CorrectKey]) / float64(t.LowSize)
}

// Discrimination returns the Item Discrimination Index D = PH - PL
// (§4.1.1 step 5).
func (t *OptionTable) Discrimination() float64 {
	return t.PH() - t.PL()
}

// Difficulty returns the group-based Item Difficulty Index P = (PH+PL)/2
// (§4.1.1 step 4).
func (t *OptionTable) Difficulty() float64 {
	return (t.PH() + t.PL()) / 2
}

// BuildOptionTable tallies Table 1 for the identified problem over the given
// groups. Choice keys not among the problem's options (stray data) are
// ignored; the problem must be a choice-style problem with option keys.
func BuildOptionTable(e *ExamResult, g Groups, problemID string) (*OptionTable, error) {
	p := e.Problem(problemID)
	if p == nil {
		return nil, fmt.Errorf("analysis: problem %q not in exam", problemID)
	}
	m := newMatrix(e)
	return optionTable(p, m.column(problemID), m.rowsOf(g.High), m.rowsOf(g.Low))
}

// optionTable tallies Table 1 for problem p from its matrix column over the
// high and low groups, given as matrix rows.
func optionTable(p *item.Problem, col []*Response, high, low []int) (*OptionTable, error) {
	keys := p.OptionKeys()
	if len(keys) == 0 {
		// True/false problems form a two-column table.
		switch p.CorrectKey() {
		case "true", "false":
			keys = []string{"true", "false"}
		default:
			return nil, fmt.Errorf("analysis: problem %q has no options to tabulate", p.ID)
		}
	}
	t := &OptionTable{
		ProblemID:  p.ID,
		Keys:       keys,
		High:       make(map[string]int, len(keys)),
		Low:        make(map[string]int, len(keys)),
		CorrectKey: p.CorrectKey(),
		HighSize:   len(high),
		LowSize:    len(low),
	}
	tally := func(rows []int, counts map[string]int, unanswered *int) {
		for _, row := range rows {
			r := cell(col, row)
			if r == nil || !r.Answered || !slices.Contains(keys, r.Option) {
				*unanswered++
				continue
			}
			counts[r.Option]++
		}
	}
	tally(high, t.High, &t.HighUnanswered)
	tally(low, t.Low, &t.LowUnanswered)
	return t, nil
}

// FromCounts builds an OptionTable directly from high/low counts, as when
// replaying the paper's worked matrices. Keys are sorted for determinism if
// order is not supplied.
func FromCounts(problemID, correctKey string, keys []string, high, low map[string]int, highSize, lowSize int) *OptionTable {
	if keys == nil {
		seen := make(map[string]struct{})
		for k := range high {
			seen[k] = struct{}{}
		}
		for k := range low {
			seen[k] = struct{}{}
		}
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
	}
	t := &OptionTable{
		ProblemID:  problemID,
		Keys:       append([]string(nil), keys...),
		High:       make(map[string]int, len(keys)),
		Low:        make(map[string]int, len(keys)),
		CorrectKey: correctKey,
		HighSize:   highSize,
		LowSize:    lowSize,
	}
	for k, v := range high {
		t.High[k] = v
	}
	for k, v := range low {
		t.Low[k] = v
	}
	return t
}
