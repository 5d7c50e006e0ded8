// Package analysis implements the paper's Assessment Analysis Model (§4):
// single-question statistics (upper/lower score groups, Item Difficulty
// Index P, Item Discrimination Index D), the signal representation with its
// four diagnostic rules (Rules 1-4, Tables 1-3), distraction analysis, the
// Instructional Sensitivity Index, and the total-test statistics behind the
// figures of §4.2.1.
//
// The package consumes response matrices — who answered which problem, which
// option they chose, how much credit they earned, and how long they took —
// and is agnostic to where those responses came from (a live delivery
// session, a simulator, or a replayed paper fixture).
package analysis

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mineassess/internal/item"
)

// Response is one student's answer to one problem.
type Response struct {
	StudentID string `json:"studentId"`
	ProblemID string `json:"problemId"`
	// Option is the chosen option key for choice-style problems ("A".."E",
	// "true"/"false"), or "" when the problem has no options or was skipped.
	Option string `json:"option,omitempty"`
	// Credit is the earned score fraction in [0,1].
	Credit float64 `json:"credit"`
	// Answered distinguishes a submitted (possibly wrong) answer from a skip.
	Answered bool `json:"answered"`
	// TimeSpent is how long the student spent on this problem.
	TimeSpent time.Duration `json:"timeSpentNanos"`
}

// Correct reports whether the response earned full credit. Classical item
// analysis dichotomizes responses; partial credit below full counts as
// incorrect here.
func (r Response) Correct() bool {
	return r.Answered && r.Credit >= 1-1e-9
}

// StudentResult aggregates one student's exam sitting.
type StudentResult struct {
	StudentID string     `json:"studentId"`
	Responses []Response `json:"responses"`
}

// Score returns the weighted total score given the problem weights; problems
// without a recorded weight count 1.
func (s StudentResult) Score(weights map[string]float64) float64 {
	total := 0.0
	for _, r := range s.Responses {
		w := weights[r.ProblemID]
		if w <= 0 {
			w = 1
		}
		total += r.Credit * w
	}
	return total
}

// TotalTime returns the sum of per-problem times.
func (s StudentResult) TotalTime() time.Duration {
	var total time.Duration
	for _, r := range s.Responses {
		total += r.TimeSpent
	}
	return total
}

// AnsweredCount returns how many problems the student actually answered.
func (s StudentResult) AnsweredCount() int {
	n := 0
	for _, r := range s.Responses {
		if r.Answered {
			n++
		}
	}
	return n
}

// ExamResult is a full administration of an exam: the problems as given and
// every student's responses.
type ExamResult struct {
	ExamID   string          `json:"examId"`
	Problems []*item.Problem `json:"problems"`
	Students []StudentResult `json:"students"`
	// TestTime is the exam's configured time limit (§3.4 II); zero means
	// unlimited.
	TestTime time.Duration `json:"testTimeNanos,omitempty"`
}

// Errors callers may match.
var (
	ErrNoStudents = errors.New("analysis: exam result has no students")
	ErrNoProblems = errors.New("analysis: exam result has no problems")
)

// Validate checks the result is analyzable.
func (e *ExamResult) Validate() error {
	if len(e.Problems) == 0 {
		return ErrNoProblems
	}
	if len(e.Students) == 0 {
		return ErrNoStudents
	}
	ids := make(map[string]struct{}, len(e.Problems))
	for i, p := range e.Problems {
		if p == nil {
			return fmt.Errorf("analysis: problem %d of exam %q is null", i, e.ExamID)
		}
		if _, dup := ids[p.ID]; dup {
			return fmt.Errorf("analysis: duplicate problem %q in exam %q", p.ID, e.ExamID)
		}
		ids[p.ID] = struct{}{}
	}
	for _, s := range e.Students {
		for _, r := range s.Responses {
			if _, ok := ids[r.ProblemID]; !ok {
				return fmt.Errorf("analysis: student %q answered unknown problem %q",
					s.StudentID, r.ProblemID)
			}
			if r.Credit < 0 || r.Credit > 1 {
				return fmt.Errorf("analysis: student %q problem %q credit %v out of [0,1]",
					s.StudentID, r.ProblemID, r.Credit)
			}
		}
	}
	return nil
}

// Weights returns the problem-ID → weight map for scoring.
func (e *ExamResult) Weights() map[string]float64 {
	w := make(map[string]float64, len(e.Problems))
	for _, p := range e.Problems {
		w[p.ID] = p.Weight()
	}
	return w
}

// Problem returns the problem with the given ID, or nil.
func (e *ExamResult) Problem(id string) *item.Problem {
	for _, p := range e.Problems {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// Scores returns each student's weighted score keyed by student ID.
func (e *ExamResult) Scores() map[string]float64 {
	weights := e.Weights()
	out := make(map[string]float64, len(e.Students))
	for _, s := range e.Students {
		out[s.StudentID] = s.Score(weights)
	}
	return out
}

// RankedStudents returns student IDs ordered by score descending, ties broken
// by student ID ascending for determinism.
func (e *ExamResult) RankedStudents() []string {
	scores := e.Scores()
	ids := make([]string, 0, len(e.Students))
	for _, s := range e.Students {
		ids = append(ids, s.StudentID)
	}
	sort.Slice(ids, func(i, j int) bool {
		si, sj := scores[ids[i]], scores[ids[j]]
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	return ids
}
