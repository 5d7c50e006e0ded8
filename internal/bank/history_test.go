package bank

import (
	"testing"
)

func TestHistoryTracksUpdates(t *testing.T) {
	s := New()
	p := mustMC(t, "q1")
	if err := s.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	if got := s.Version("q1"); got != 1 {
		t.Errorf("fresh version = %d, want 1", got)
	}
	if got := s.History("q1"); len(got) != 0 {
		t.Errorf("fresh history = %v", got)
	}

	v2 := p.Clone()
	v2.Question = "second wording"
	if err := s.UpdateProblem(v2); err != nil {
		t.Fatal(err)
	}
	v3 := v2.Clone()
	v3.Question = "third wording"
	if err := s.UpdateProblem(v3); err != nil {
		t.Fatal(err)
	}

	if got := s.Version("q1"); got != 3 {
		t.Errorf("version = %d, want 3", got)
	}
	hist := s.History("q1")
	if len(hist) != 2 {
		t.Fatalf("history = %d entries", len(hist))
	}
	if hist[0].Version != 1 || hist[1].Version != 2 {
		t.Errorf("versions = %d, %d", hist[0].Version, hist[1].Version)
	}
	if hist[0].Problem.Question != "question for q1" {
		t.Errorf("oldest revision text = %q", hist[0].Problem.Question)
	}
	// The returned list is the caller's own; its revisions are shared.
	hist[0] = Revision{}
	if s.History("q1")[0].Version != 1 {
		t.Error("history must return its own list")
	}
}

func TestRollback(t *testing.T) {
	s := New()
	p := mustMC(t, "q1")
	if err := s.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	v2 := p.Clone()
	v2.Question = "broken fix"
	if err := s.UpdateProblem(v2); err != nil {
		t.Fatal(err)
	}

	restored, err := s.Rollback("q1")
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if restored.Question != "question for q1" {
		t.Errorf("restored text = %q", restored.Question)
	}
	cur, err := s.Problem("q1")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Question != "question for q1" {
		t.Errorf("current text = %q", cur.Question)
	}
	// Rollback of the rollback returns the broken fix.
	again, err := s.Rollback("q1")
	if err != nil {
		t.Fatalf("second rollback: %v", err)
	}
	if again.Question != "broken fix" {
		t.Errorf("second rollback text = %q", again.Question)
	}
}

func TestRollbackErrors(t *testing.T) {
	s := New()
	if _, err := s.Rollback("absent"); err == nil {
		t.Error("unknown problem should fail")
	}
	if err := s.AddProblem(mustMC(t, "q1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rollback("q1"); err == nil {
		t.Error("no history should fail")
	}
}

func TestDeleteClearsHistory(t *testing.T) {
	s := New()
	p := mustMC(t, "q1")
	if err := s.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	v2 := p.Clone()
	v2.Question = "new"
	if err := s.UpdateProblem(v2); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteProblem("q1"); err != nil {
		t.Fatal(err)
	}
	if got := s.History("q1"); len(got) != 0 {
		t.Errorf("history after delete = %v", got)
	}
	// Re-adding starts fresh at version 1.
	if err := s.AddProblem(mustMC(t, "q1")); err != nil {
		t.Fatal(err)
	}
	if got := s.Version("q1"); got != 1 {
		t.Errorf("version after re-add = %d", got)
	}
}
