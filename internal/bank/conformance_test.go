package bank

// Shared conformance suite: every Storage backend — New's single-shard
// store ("reference"), the sharded store, and a Journal over either — must
// expose identical behaviour. New backends plug into storageBackends and
// inherit the whole suite.

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
	"mineassess/internal/wal"
)

// storageBackends enumerates every backend under conformance test. The
// factory may register cleanups (journal close) on t.
func storageBackends(t *testing.T) map[string]func(t *testing.T) Storage {
	t.Helper()
	return map[string]func(t *testing.T) Storage{
		"reference": func(t *testing.T) Storage { return New() },
		"sharded":   func(t *testing.T) Storage { return NewSharded(8) },
		"sharded1":  func(t *testing.T) Storage { return NewSharded(1) },
		"journal/reference": func(t *testing.T) Storage {
			j, err := OpenJournal(t.TempDir(), New(), JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = j.Close() })
			return j
		},
		"journal/sharded": func(t *testing.T) Storage {
			// Tiny compactEvery forces compaction mid-suite, proving reads
			// and further writes survive it.
			j, err := OpenJournal(t.TempDir(), NewSharded(4), JournalOptions{CompactEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = j.Close() })
			return j
		},
		// The non-default sync policy must not change any observable
		// semantics — only what survives a power failure.
		"journal/none": func(t *testing.T) Storage {
			j, err := OpenJournal(t.TempDir(), NewSharded(4), JournalOptions{CompactEvery: 3, Sync: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = j.Close() })
			return j
		},
	}
}

// forEachBackend runs fn as a subtest per backend.
func forEachBackend(t *testing.T, fn func(t *testing.T, s Storage)) {
	for name, factory := range storageBackends(t) {
		t.Run(name, func(t *testing.T) {
			fn(t, factory(t))
		})
	}
}

func confMC(t *testing.T, id string) *item.Problem {
	t.Helper()
	p, err := item.NewMultipleChoice(id, "question for "+id,
		[]string{"a", "b", "c", "d"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConformanceProblemCRUD(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		p := confMC(t, "q1")
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
		if upd, _ := s.Problem("q1"); upd.Question != "updated text" {
			t.Error("update not applied")
		}
		if got := s.Version("q1"); got != 2 {
			t.Errorf("Version = %d, want 2", got)
		}
		if err := s.UpdateProblem(confMC(t, "missing")); !errors.Is(err, ErrProblemNotFound) {
			t.Errorf("update missing = %v, want ErrProblemNotFound", err)
		}
		if err := s.DeleteProblem("q1"); err != nil {
			t.Fatalf("DeleteProblem: %v", err)
		}
		if _, err := s.Problem("q1"); !errors.Is(err, ErrProblemNotFound) {
			t.Errorf("deleted get = %v, want ErrProblemNotFound", err)
		}
		if err := s.DeleteProblem("q1"); !errors.Is(err, ErrProblemNotFound) {
			t.Errorf("double delete = %v, want ErrProblemNotFound", err)
		}
	})
}

// TestConformanceWritesCopyIn: a write stores its own copy, so a caller
// that goes on editing its value after AddProblem, AddExam or
// PutAdaptiveSession leaves the store unchanged. A read returns the stored
// value itself, the same one to every reader.
func TestConformanceWritesCopyIn(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		p := confMC(t, "q1")
		if err := s.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		p.Question = "edited after the write"
		p.Options[0].Text = "edited after the write"
		got, err := s.Problem("q1")
		if err != nil {
			t.Fatal(err)
		}
		if got.Question != "question for q1" || got.Options[0].Text != "a" {
			t.Errorf("stored problem follows the caller's edits: %+v", got)
		}
		if again, _ := s.Problem("q1"); again != got {
			t.Error("two reads of one problem returned different values")
		}

		rec := &ExamRecord{ID: "final", ProblemIDs: []string{"q1"},
			Groups:     []ExamGroup{{Name: "part A", ProblemIDs: []string{"q1"}}},
			ItemParams: map[string]simulate.IRTParams{"q1": {A: 1.5}}}
		if err := s.AddExam(rec); err != nil {
			t.Fatal(err)
		}
		rec.ProblemIDs[0] = "edited"
		rec.Groups[0].ProblemIDs[0] = "edited"
		rec.ItemParams["q1"] = simulate.IRTParams{A: 9}
		exam, err := s.Exam("final")
		if err != nil {
			t.Fatal(err)
		}
		if exam.ProblemIDs[0] != "q1" || exam.Groups[0].ProblemIDs[0] != "q1" || exam.ItemParams["q1"].A != 1.5 {
			t.Errorf("stored exam follows the caller's edits: %+v", exam)
		}

		sess := &AdaptiveSessionRecord{ID: "cat-000001", ExamID: "final",
			State: AdaptiveStateActive, PendingID: "q1",
			Administered: []string{"q0"}, Correct: []bool{true}}
		if err := s.PutAdaptiveSession(sess); err != nil {
			t.Fatal(err)
		}
		sess.Administered[0] = "edited"
		sess.Correct[0] = false
		sess.Theta = 3
		stored, err := s.AdaptiveSession("cat-000001")
		if err != nil {
			t.Fatal(err)
		}
		if stored.Administered[0] != "q0" || !stored.Correct[0] || stored.Theta != 0 {
			t.Errorf("stored record follows the caller's edits: %+v", stored)
		}
	})
}

func TestConformanceIDsAndCounts(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		want := []string{"a1", "b2", "c3", "d4", "e5"}
		for i := len(want) - 1; i >= 0; i-- { // insert out of order
			if err := s.AddProblem(confMC(t, want[i])); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.ProblemCount(); got != len(want) {
			t.Errorf("ProblemCount = %d, want %d", got, len(want))
		}
		if got := s.ProblemIDs(); !reflect.DeepEqual(got, want) {
			t.Errorf("ProblemIDs = %v, want sorted %v", got, want)
		}
		got, err := s.Problems([]string{"c3", "a1"})
		if err != nil || len(got) != 2 || got[0].ID != "c3" || got[1].ID != "a1" {
			t.Errorf("Problems preserves request order; got %v, %v", got, err)
		}
		if _, err := s.Problems([]string{"a1", "nope"}); !errors.Is(err, ErrProblemNotFound) {
			t.Errorf("Problems with missing = %v, want ErrProblemNotFound", err)
		}
	})
}

func TestConformanceExams(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		for _, id := range []string{"q1", "q2"} {
			if err := s.AddProblem(confMC(t, id)); err != nil {
				t.Fatal(err)
			}
		}
		rec := &ExamRecord{ID: "final", Title: "Final",
			ProblemIDs: []string{"q1", "q2"}, TestTimeSeconds: 600}
		if err := s.AddExam(rec); err != nil {
			t.Fatalf("AddExam: %v", err)
		}
		if err := s.AddExam(rec); !errors.Is(err, ErrExamExists) {
			t.Errorf("duplicate exam = %v, want ErrExamExists", err)
		}
		if err := s.AddExam(&ExamRecord{ID: "  "}); err == nil {
			t.Error("blank exam ID accepted")
		}
		if err := s.AddExam(&ExamRecord{ID: "bad", ProblemIDs: []string{"ghost"}}); !errors.Is(err, ErrProblemNotFound) {
			t.Errorf("dangling exam = %v, want ErrProblemNotFound", err)
		}
		got, err := s.Exam("final")
		if err != nil || got.Title != "Final" || len(got.ProblemIDs) != 2 {
			t.Fatalf("Exam = %+v, %v", got, err)
		}
		if ids := s.ExamIDs(); !reflect.DeepEqual(ids, []string{"final"}) {
			t.Errorf("ExamIDs = %v", ids)
		}
		if err := s.DeleteExam("final"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exam("final"); !errors.Is(err, ErrExamNotFound) {
			t.Errorf("deleted exam = %v, want ErrExamNotFound", err)
		}
	})
}

func TestConformanceSearchAndBrowse(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		for i := 0; i < 10; i++ {
			p := confMC(t, fmt.Sprintf("q%02d", i))
			p.Subject = []string{"Math", "History"}[i%2]
			p.Level = cognition.Levels()[i%3]
			p.Keywords = []string{"kw", fmt.Sprintf("only%d", i)}
			if err := s.AddProblem(p); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Search(Query{Subject: "math"}); len(got) != 5 {
			t.Errorf("subject search = %d, want 5", len(got))
		}
		got := s.Search(Query{Keyword: "kw"})
		if len(got) != 10 {
			t.Fatalf("keyword search = %d, want 10", len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].ID >= got[i].ID {
				t.Fatalf("search results not ID-sorted: %s before %s", got[i-1].ID, got[i].ID)
			}
		}
		if got := s.Search(Query{Keyword: "kw", Limit: 3}); len(got) != 3 {
			t.Errorf("limited search = %d, want 3", len(got))
		}
		if got := s.Search(Query{Keyword: "only7"}); len(got) != 1 || got[0].ID != "q07" {
			t.Errorf("pinpoint search = %v", got)
		}
		if got := s.Subjects(); !reflect.DeepEqual(got, []string{"History", "Math"}) {
			t.Errorf("Subjects = %v", got)
		}
		if got := s.CountByStyle()[item.MultipleChoice]; got != 10 {
			t.Errorf("CountByStyle[MC] = %d, want 10", got)
		}
	})
}

func TestConformanceHistoryAndRollback(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		p := confMC(t, "q1")
		p.Question = "v1"
		if err := s.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		if got := s.History("q1"); len(got) != 0 {
			t.Errorf("fresh history = %d entries", len(got))
		}
		for v := 2; v <= 4; v++ {
			p2 := p.Clone()
			p2.Question = fmt.Sprintf("v%d", v)
			if err := s.UpdateProblem(p2); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Version("q1"); got != 4 {
			t.Errorf("Version = %d, want 4", got)
		}
		hist := s.History("q1")
		if len(hist) != 3 || hist[0].Problem.Question != "v1" || hist[2].Problem.Question != "v3" {
			t.Fatalf("History = %+v", hist)
		}
		restored, err := s.Rollback("q1")
		if err != nil || restored.Question != "v3" {
			t.Fatalf("Rollback = %v, %v", restored, err)
		}
		cur, _ := s.Problem("q1")
		if cur.Question != "v3" {
			t.Errorf("current after rollback = %q", cur.Question)
		}
		// Rollback of a rollback restores the pre-rollback version.
		if again, err := s.Rollback("q1"); err != nil || again.Question != "v4" {
			t.Fatalf("double rollback = %v, %v", again, err)
		}
		if _, err := s.Rollback("ghost"); !errors.Is(err, ErrProblemNotFound) {
			t.Errorf("rollback missing = %v", err)
		}
	})
}

func TestConformanceSaveLoadRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		for i := 0; i < 6; i++ {
			if err := s.AddProblem(confMC(t, fmt.Sprintf("q%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddExam(&ExamRecord{ID: "e1", ProblemIDs: []string{"q0", "q3"}}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "bank.json")
		if err := s.Save(path); err != nil {
			t.Fatalf("Save: %v", err)
		}
		// Round trip into the opposite backend style: saves are portable.
		back := NewSharded(4)
		if err := LoadInto(path, back); err != nil {
			t.Fatalf("LoadInto: %v", err)
		}
		if !reflect.DeepEqual(back.ProblemIDs(), s.ProblemIDs()) {
			t.Errorf("round trip problems = %v", back.ProblemIDs())
		}
		if !reflect.DeepEqual(back.ExamIDs(), s.ExamIDs()) {
			t.Errorf("round trip exams = %v", back.ExamIDs())
		}
	})
}

// TestConformanceConcurrentMixedOps hammers each backend with parallel
// writers and readers over disjoint and overlapping keys; run under -race.
func TestConformanceConcurrentMixedOps(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		const workers = 16
		var wg sync.WaitGroup
		errs := make(chan error, workers*4)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				id := fmt.Sprintf("w%02d", w)
				p, err := item.NewMultipleChoice(id, "concurrent "+id,
					[]string{"a", "b", "c", "d"}, 0)
				if err != nil {
					errs <- err
					return
				}
				if err := s.AddProblem(p); err != nil {
					errs <- err
					return
				}
				p2 := p.Clone()
				p2.Question = "updated " + id
				if err := s.UpdateProblem(p2); err != nil {
					errs <- err
					return
				}
				if _, err := s.Problem(id); err != nil {
					errs <- err
				}
				_ = s.ProblemIDs()
				_ = s.Search(Query{Keyword: "concurrent"})
				_ = s.ProblemCount()
				_ = s.Version(id)
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if got := s.ProblemCount(); got != workers {
			t.Errorf("ProblemCount = %d, want %d", got, workers)
		}
	})
}

func TestConformanceUpdateExam(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		for _, id := range []string{"q1", "q2"} {
			if err := s.AddProblem(confMC(t, id)); err != nil {
				t.Fatal(err)
			}
		}
		rec := &ExamRecord{ID: "pool", Title: "Pool",
			ProblemIDs: []string{"q1", "q2"}}
		if err := s.UpdateExam(rec); !errors.Is(err, ErrExamNotFound) {
			t.Errorf("update missing exam = %v, want ErrExamNotFound", err)
		}
		if err := s.AddExam(rec); err != nil {
			t.Fatal(err)
		}
		upd := cloneExam(rec)
		upd.Title = "Calibrated pool"
		upd.ItemParams = map[string]simulate.IRTParams{
			"q1": {A: 1.5, B: -0.5},
			"q2": {A: 1.5, B: 0.5},
		}
		if err := s.UpdateExam(upd); err != nil {
			t.Fatalf("UpdateExam: %v", err)
		}
		got, err := s.Exam("pool")
		if err != nil || got.Title != "Calibrated pool" || len(got.ItemParams) != 2 {
			t.Fatalf("updated exam = %+v, %v", got, err)
		}
		bad := cloneExam(upd)
		bad.ProblemIDs = append(bad.ProblemIDs, "ghost")
		if err := s.UpdateExam(bad); !errors.Is(err, ErrProblemNotFound) {
			t.Errorf("dangling update = %v, want ErrProblemNotFound", err)
		}
		// Both preconditions violated at once: every backend must report
		// the missing exam, not the missing problem, so clients see one
		// error code regardless of backend.
		missing := &ExamRecord{ID: "no-such-exam", ProblemIDs: []string{"ghost"}}
		if err := s.UpdateExam(missing); !errors.Is(err, ErrExamNotFound) {
			t.Errorf("missing exam + dangling refs = %v, want ErrExamNotFound", err)
		}
	})
}

func TestConformanceAdaptiveSessions(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		if _, err := s.AdaptiveSession("ghost"); !errors.Is(err, ErrAdaptiveSessionNotFound) {
			t.Errorf("missing session = %v, want ErrAdaptiveSessionNotFound", err)
		}
		rec := &AdaptiveSessionRecord{
			ID: "cat-000001", ExamID: "pool", StudentID: "alice",
			MaxItems: 10, TargetSE: 0.35, State: AdaptiveStateActive,
			PendingID: "q3",
		}
		if err := s.PutAdaptiveSession(rec); err != nil {
			t.Fatalf("PutAdaptiveSession: %v", err)
		}
		// Upsert: re-putting with progress replaces the record.
		rec.Administered = []string{"q3"}
		rec.Correct = []bool{true}
		rec.PendingID = "q5"
		rec.Theta = 0.42
		if err := s.PutAdaptiveSession(rec); err != nil {
			t.Fatalf("upsert: %v", err)
		}
		got, err := s.AdaptiveSession("cat-000001")
		if err != nil || got.PendingID != "q5" || len(got.Administered) != 1 {
			t.Fatalf("AdaptiveSession = %+v, %v", got, err)
		}
		if err := s.PutAdaptiveSession(&AdaptiveSessionRecord{ID: " "}); err == nil {
			t.Error("blank session ID accepted")
		}
		if err := s.PutAdaptiveSession(&AdaptiveSessionRecord{
			ID: "bad", State: "warp"}); err == nil {
			t.Error("unknown state accepted")
		}
		if err := s.PutAdaptiveSession(&AdaptiveSessionRecord{
			ID: "bad", State: AdaptiveStateActive,
			Administered: []string{"a"}, Correct: nil}); err == nil {
			t.Error("administered/correct length mismatch accepted")
		}
		if ids := s.AdaptiveSessionIDs(); !reflect.DeepEqual(ids, []string{"cat-000001"}) {
			t.Errorf("AdaptiveSessionIDs = %v", ids)
		}
		if err := s.DeleteAdaptiveSession("cat-000001"); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteAdaptiveSession("cat-000001"); !errors.Is(err, ErrAdaptiveSessionNotFound) {
			t.Errorf("double delete = %v, want ErrAdaptiveSessionNotFound", err)
		}
	})
}

// TestConformanceAdaptiveRoundTrip proves adaptive sessions and calibrated
// pool parameters survive Save/Load across backend styles — the restart
// path live CAT delivery depends on.
func TestConformanceAdaptiveRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		if err := s.AddProblem(confMC(t, "q1")); err != nil {
			t.Fatal(err)
		}
		if err := s.AddExam(&ExamRecord{ID: "pool", ProblemIDs: []string{"q1"},
			ItemParams: map[string]simulate.IRTParams{"q1": {A: 2, B: 0.25}}}); err != nil {
			t.Fatal(err)
		}
		rec := &AdaptiveSessionRecord{
			ID: "cat-000002", ExamID: "pool", StudentID: "bob", Seed: 7,
			MaxItems: 5, State: AdaptiveStateActive, PendingID: "q1",
		}
		if err := s.PutAdaptiveSession(rec); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "bank.json")
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		back := NewSharded(4)
		if err := LoadInto(path, back); err != nil {
			t.Fatal(err)
		}
		exam, err := back.Exam("pool")
		if err != nil || exam.ItemParams["q1"].B != 0.25 {
			t.Fatalf("round-tripped params = %+v, %v", exam, err)
		}
		sess, err := back.AdaptiveSession("cat-000002")
		if err != nil || sess.PendingID != "q1" || sess.MaxItems != 5 {
			t.Fatalf("round-tripped session = %+v, %v", sess, err)
		}
	})
}

// TestConformanceGeneration: each of the seven problem and exam writes
// moves the generation; session writes, reads and failed writes leave it
// alone. A snapshot load goes through the writes, so it moves too.
func TestConformanceGeneration(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Storage) {
		gen := s.Generation()
		moved := func(write string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", write, err)
			}
			if g := s.Generation(); g == gen {
				t.Errorf("%s left the generation at %d", write, g)
			}
			gen = s.Generation()
		}
		still := func(what string) {
			t.Helper()
			if g := s.Generation(); g != gen {
				t.Errorf("%s moved the generation from %d to %d", what, gen, g)
			}
			gen = s.Generation()
		}

		p := confMC(t, "q1")
		moved("AddProblem", s.AddProblem(p))
		p2 := p.Clone()
		p2.Question = "second version"
		moved("UpdateProblem", s.UpdateProblem(p2))
		_, err := s.Rollback("q1")
		moved("Rollback", err)
		exam := &ExamRecord{ID: "final", ProblemIDs: []string{"q1"}}
		moved("AddExam", s.AddExam(exam))
		moved("UpdateExam", s.UpdateExam(&ExamRecord{ID: "final", Title: "Final", ProblemIDs: []string{"q1"}}))

		rec := &AdaptiveSessionRecord{ID: "cat-000001", ExamID: "final", State: AdaptiveStateActive, PendingID: "q1"}
		if err := s.PutAdaptiveSession(rec); err != nil {
			t.Fatal(err)
		}
		still("PutAdaptiveSession")
		if err := s.DeleteAdaptiveSession(rec.ID); err != nil {
			t.Fatal(err)
		}
		still("DeleteAdaptiveSession")

		_, _ = s.Problem("q1")
		_, _ = s.Problems([]string{"q1"})
		_ = s.ProblemCount()
		_ = s.ProblemIDs()
		_, _ = s.Exam("final")
		_ = s.ExamIDs()
		_, _ = s.AdaptiveSession(rec.ID)
		_ = s.AdaptiveSessionIDs()
		_ = s.Search(Query{})
		_ = s.Subjects()
		_ = s.CountByStyle()
		_ = s.History("q1")
		_ = s.Version("q1")
		path := filepath.Join(t.TempDir(), "bank.json")
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		still("reads")

		failed := []error{
			s.AddProblem(p),
			s.UpdateProblem(confMC(t, "ghost")),
			s.DeleteProblem("ghost"),
			s.AddExam(exam),
			s.AddExam(&ExamRecord{ID: "dangling", ProblemIDs: []string{"ghost"}}),
			s.UpdateExam(&ExamRecord{ID: "ghost"}),
			s.DeleteExam("ghost"),
		}
		_, err = s.Rollback("ghost")
		failed = append(failed, err)
		for i, err := range failed {
			if err == nil {
				t.Errorf("failed write %d succeeded", i)
			}
		}
		still("failed writes")

		moved("DeleteExam", s.DeleteExam("final"))
		moved("DeleteProblem", s.DeleteProblem("q1"))

		loaded := New()
		if err := LoadInto(path, loaded); err != nil {
			t.Fatal(err)
		}
		if loaded.Generation() == 0 {
			t.Error("a snapshot load left the generation at 0")
		}
	})
}
