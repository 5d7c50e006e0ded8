package bank

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

func mustMC(t *testing.T, id string) *item.Problem {
	t.Helper()
	p, err := item.NewMultipleChoice(id, "question for "+id,
		[]string{"a", "b", "c", "d"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStoreProblemCRUD(t *testing.T) {
	s := New()
	p := mustMC(t, "q1")
	if err := s.AddProblem(p); err != nil {
		t.Fatalf("AddProblem: %v", err)
	}
	if err := s.AddProblem(p); !errors.Is(err, ErrProblemExists) {
		t.Errorf("duplicate add = %v, want ErrProblemExists", err)
	}
	got, err := s.Problem("q1")
	if err != nil || got.ID != "q1" {
		t.Fatalf("Problem = %v, %v", got, err)
	}
	p2 := p.Clone()
	p2.Question = "updated text"
	if err := s.UpdateProblem(p2); err != nil {
		t.Fatalf("UpdateProblem: %v", err)
	}
	upd, err := s.Problem("q1")
	if err != nil {
		t.Fatal(err)
	}
	if upd.Question != "updated text" {
		t.Error("update not applied")
	}
	if err := s.DeleteProblem("q1"); err != nil {
		t.Fatalf("DeleteProblem: %v", err)
	}
	if _, err := s.Problem("q1"); !errors.Is(err, ErrProblemNotFound) {
		t.Errorf("after delete = %v, want ErrProblemNotFound", err)
	}
	if err := s.UpdateProblem(p2); !errors.Is(err, ErrProblemNotFound) {
		t.Errorf("update missing = %v, want ErrProblemNotFound", err)
	}
	if err := s.DeleteProblem("q1"); !errors.Is(err, ErrProblemNotFound) {
		t.Errorf("double delete = %v, want ErrProblemNotFound", err)
	}
}

func TestStoreRejectsInvalidProblem(t *testing.T) {
	s := New()
	bad := &item.Problem{ID: "x", Style: item.MultipleChoice, Question: "?"}
	if err := s.AddProblem(bad); err == nil {
		t.Error("invalid problem should be rejected")
	}
}

func TestStoreProblemIDsSorted(t *testing.T) {
	s := New()
	for _, id := range []string{"qc", "qa", "qb"} {
		if err := s.AddProblem(mustMC(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.ProblemIDs()
	if len(ids) != 3 || ids[0] != "qa" || ids[2] != "qc" {
		t.Errorf("IDs = %v", ids)
	}
	if s.ProblemCount() != 3 {
		t.Errorf("count = %d", s.ProblemCount())
	}
}

func TestStoreProblemsBatch(t *testing.T) {
	s := New()
	if err := s.AddProblem(mustMC(t, "q1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Problems([]string{"q1", "ghost"}); !errors.Is(err, ErrProblemNotFound) {
		t.Errorf("missing batch = %v, want ErrProblemNotFound", err)
	}
	got, err := s.Problems([]string{"q1"})
	if err != nil || len(got) != 1 {
		t.Errorf("Problems = %v, %v", got, err)
	}
}

func TestStoreExamCRUD(t *testing.T) {
	s := New()
	if err := s.AddProblem(mustMC(t, "q1")); err != nil {
		t.Fatal(err)
	}
	exam := &ExamRecord{ID: "e1", Title: "Midterm", ProblemIDs: []string{"q1"},
		Display: item.FixedOrder, TestTimeSeconds: 3600}
	if err := s.AddExam(exam); err != nil {
		t.Fatalf("AddExam: %v", err)
	}
	if err := s.AddExam(exam); !errors.Is(err, ErrExamExists) {
		t.Errorf("duplicate exam = %v, want ErrExamExists", err)
	}
	got, err := s.Exam("e1")
	if err != nil || got.Title != "Midterm" {
		t.Fatalf("Exam = %v, %v", got, err)
	}
	if err := s.DeleteExam("e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exam("e1"); !errors.Is(err, ErrExamNotFound) {
		t.Errorf("after delete = %v, want ErrExamNotFound", err)
	}
	if err := s.DeleteExam("e1"); !errors.Is(err, ErrExamNotFound) {
		t.Errorf("double delete = %v", err)
	}
}

func TestStoreExamValidatesReferences(t *testing.T) {
	s := New()
	exam := &ExamRecord{ID: "e1", ProblemIDs: []string{"ghost"}}
	if err := s.AddExam(exam); !errors.Is(err, ErrProblemNotFound) {
		t.Errorf("dangling reference = %v, want ErrProblemNotFound", err)
	}
	if err := s.AddExam(&ExamRecord{ID: " "}); err == nil {
		t.Error("blank exam ID should fail")
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := New()
	p := mustMC(t, "q1")
	p.Subject = "algebra"
	p.Level = cognition.Application
	p.Keywords = []string{"quadratic"}
	if err := s.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	if err := s.AddProblem(mustMC(t, "q2")); err != nil {
		t.Fatal(err)
	}
	exam := &ExamRecord{ID: "e1", Title: "Final", ProblemIDs: []string{"q1", "q2"},
		Display: item.RandomOrder,
		Groups:  []ExamGroup{{Name: "part A", ProblemIDs: []string{"q1"}}}}
	if err := s.AddExam(exam); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "bank.json")
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	lp, err := loaded.Problem("q1")
	if err != nil {
		t.Fatal(err)
	}
	if lp.Subject != "algebra" || lp.Level != cognition.Application || len(lp.Keywords) != 1 {
		t.Errorf("loaded problem lost fields: %+v", lp)
	}
	le, err := loaded.Exam("e1")
	if err != nil {
		t.Fatal(err)
	}
	if le.Display != item.RandomOrder || len(le.Groups) != 1 || le.Groups[0].Name != "part A" {
		t.Errorf("loaded exam lost fields: %+v", le)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file should fail")
	}
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("corrupt file should fail")
	}
}

func TestSaveToUnwritablePath(t *testing.T) {
	s := New()
	if err := s.AddProblem(mustMC(t, "q1")); err != nil {
		t.Fatal(err)
	}
	// A directory path cannot be written as a file.
	if err := s.Save(t.TempDir()); err == nil {
		t.Error("saving over a directory should fail")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			id := fmt.Sprintf("q%02d", n)
			_ = s.AddProblem(mustMC(t, id))
			_, _ = s.Problem(id)
			_ = s.ProblemIDs()
			_ = s.Search(Query{Keyword: "question"})
		}(i)
	}
	wg.Wait()
	if s.ProblemCount() != 32 {
		t.Errorf("count = %d, want 32", s.ProblemCount())
	}
}
