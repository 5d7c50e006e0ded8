package banktest

import (
	"fmt"
	"strings"
	"testing"

	"mineassess/internal/bank"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
)

// recorder stands in for the test a guard watches: it keeps the guard's
// cleanups and failures so a test can check them.
type recorder struct {
	testing.TB
	cleanups []func()
	errs     []string
}

func (r *recorder) Helper()           {}
func (r *recorder) Cleanup(fn func()) { r.cleanups = append(r.cleanups, fn) }
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// end runs the guard's cleanups, as the end of a test would, and returns
// the failures they reported.
func (r *recorder) end() []string {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
	return r.errs
}

func mc(t *testing.T, id string) *item.Problem {
	t.Helper()
	p, err := item.NewMultipleChoice(id, "question "+id, []string{"a", "b", "c"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// guardedBank is a guarded store holding problems q1 and q2, each stored
// before the guard wrapped it or after, and a calibrated exam over them.
func guardedBank(t *testing.T, r *recorder) bank.Storage {
	t.Helper()
	inner := bank.New()
	if err := inner.AddProblem(mc(t, "q1")); err != nil {
		t.Fatal(err)
	}
	store := Guard(r, inner)
	if err := store.AddProblem(mc(t, "q2")); err != nil {
		t.Fatal(err)
	}
	if err := store.AddExam(&bank.ExamRecord{ID: "e", ProblemIDs: []string{"q1", "q2"},
		ItemParams: map[string]simulate.IRTParams{"q1": {A: 1}, "q2": {A: 1}}}); err != nil {
		t.Fatal(err)
	}
	return store
}

func TestGuardPassesReadOnlyUseAndCopies(t *testing.T) {
	r := &recorder{TB: t}
	store := guardedBank(t, r)
	p, err := store.Problem("q1")
	if err != nil {
		t.Fatal(err)
	}
	edit := p.Clone()
	edit.Question = "reworded"
	if err := store.UpdateProblem(edit); err != nil {
		t.Fatal(err)
	}
	edit.Question = "edited after the write" // the caller's own value
	e, err := store.Exam("e")
	if err != nil {
		t.Fatal(err)
	}
	next := *e
	next.Title = "retitled"
	if err := store.UpdateExam(&next); err != nil {
		t.Fatal(err)
	}
	if errs := r.end(); len(errs) != 0 {
		t.Errorf("guard failed a test that edits only copies: %v", errs)
	}
}

func TestGuardFailsInPlaceEdits(t *testing.T) {
	edits := map[string]func(t *testing.T, s bank.Storage){
		"problem stored before the guard": func(t *testing.T, s bank.Storage) {
			p, err := s.Problem("q1")
			if err != nil {
				t.Fatal(err)
			}
			p.Question = "edited in place"
		},
		"problem written through the guard": func(t *testing.T, s bank.Storage) {
			ps, err := s.Problems([]string{"q2"})
			if err != nil {
				t.Fatal(err)
			}
			ps[0].Options[0].Text = "edited in place"
		},
		"exam": func(t *testing.T, s bank.Storage) {
			e, err := s.Exam("e")
			if err != nil {
				t.Fatal(err)
			}
			e.ItemParams["q1"] = simulate.IRTParams{A: 2}
		},
		"adaptive record": func(t *testing.T, s bank.Storage) {
			if err := s.PutAdaptiveSession(&bank.AdaptiveSessionRecord{
				ID: "cat-1", ExamID: "e", State: bank.AdaptiveStateActive, PendingID: "q1"}); err != nil {
				t.Fatal(err)
			}
			rec, err := s.AdaptiveSession("cat-1")
			if err != nil {
				t.Fatal(err)
			}
			rec.Theta = 1.5
		},
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			r := &recorder{TB: t}
			edit(t, guardedBank(t, r))
			errs := r.end()
			if len(errs) != 1 || !strings.Contains(errs[0], "modified in place") {
				t.Errorf("guard reported %q, want one in-place edit", errs)
			}
		})
	}
}
