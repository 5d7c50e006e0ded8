package delivery

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/internal/scorm"
)

// TestEngineConcurrentSessions hammers one engine from many goroutines:
// starts, answers, status polls, monitor reads and finishes must be safe
// under -race and leave a consistent result set.
func TestEngineConcurrentSessions(t *testing.T) {
	store, examID := examFixture(t, false)
	eng := NewEngine(store, nil, 8)

	const students = 24
	var wg sync.WaitGroup
	errs := make(chan error, students)
	for i := 0; i < students; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			sid := fmt.Sprintf("stu%02d", n)
			sess, err := eng.Start(context.Background(), examID, sid, int64(n))
			if err != nil {
				errs <- err
				return
			}
			for q := 1; q <= 4; q++ {
				opt := "A"
				if (n+q)%3 == 0 {
					opt = "B"
				}
				if err := eng.Answer(context.Background(), sess.ID, fmt.Sprintf("q%d", q), opt); err != nil {
					errs <- err
					return
				}
				if _, err := eng.Status(sess.ID); err != nil {
					errs <- err
					return
				}
				if _, err := eng.Snapshots(sess.ID); err != nil {
					errs <- err
					return
				}
			}
			if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	res, err := eng.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Students) != students {
		t.Fatalf("collected %d students, want %d", len(res.Students), students)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("collected result invalid: %v", err)
	}
	// Every student answered all four questions.
	for _, s := range res.Students {
		if s.AnsweredCount() != 4 {
			t.Errorf("student %s answered %d", s.StudentID, s.AnsweredCount())
		}
	}
}

// TestEngineConcurrentGradingAndSummaries overlaps manual grading, summary
// listings and result collection.
func TestEngineConcurrentGradingAndSummaries(t *testing.T) {
	store, examID := essayExamFixture(t)
	eng := NewEngine(store, nil, 0)

	const n = 12
	sessIDs := make([]string, n)
	for i := 0; i < n; i++ {
		sess, err := eng.Start(context.Background(), examID, fmt.Sprintf("w%02d", i), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Answer(context.Background(), sess.ID, "essay1", "an essay"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Answer(context.Background(), sess.ID, "mc1", "A"); err != nil {
			t.Fatal(err)
		}
		sessIDs[i] = sess.ID
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			if err := eng.AssignGrade(sessIDs[idx], "essay1", 0.5); err != nil {
				t.Errorf("grade %d: %v", idx, err)
			}
			_ = eng.SessionSummaries(examID)
			_ = eng.PendingGrades(examID)
			if _, err := eng.Finish(context.Background(), sessIDs[idx]); err != nil {
				t.Errorf("finish %d: %v", idx, err)
			}
		}(i)
	}
	wg.Wait()

	res, err := eng.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Students {
		for _, r := range s.Responses {
			if r.ProblemID == "essay1" && r.Credit != 0.5 {
				t.Errorf("student %s essay credit = %v", s.StudentID, r.Credit)
			}
		}
	}
}

// shardedExamFixture authors the stress exam over the sharded bank backend,
// so the stress test exercises the full sharded stack: sharded storage,
// sharded session registry, per-session monitor rings.
func shardedExamFixture(t *testing.T) (bank.Storage, string) {
	t.Helper()
	s := bank.NewSharded(8)
	var ids []string
	for i := 0; i < 4; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%d", i+1), "?",
			[]string{"w", "x", "y", "z"}, 0) // correct A
		if err != nil {
			t.Fatal(err)
		}
		p.Level = cognition.Knowledge
		p.Resumable = true
		if err := s.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	rec := &bank.ExamRecord{ID: "stress", Title: "Stress quiz", ProblemIDs: ids,
		Display: item.FixedOrder, TestTimeSeconds: 600}
	if err := s.AddExam(rec); err != nil {
		t.Fatal(err)
	}
	return banktest.Guard(t, s), rec.ID
}

// TestEngineStressAcrossShards drives the full session lifecycle —
// Start/Answer/Pause/Status/Resume/Finish — from 80 learner goroutines while
// admin goroutines continuously scan summaries, pending grades, results and
// monitor rings. Run under -race (CI does); it is the regression net for the
// per-session locking model.
func TestEngineStressAcrossShards(t *testing.T) {
	store, examID := shardedExamFixture(t)
	eng := NewShardedEngine(store, nil, 8, 16)

	const (
		workers  = 80 // >= 64 per the issue; spread over 16 registry shards
		sittings = 3
	)
	var (
		wg   sync.WaitGroup
		done atomic.Bool
		errs = make(chan error, workers+8)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sitting := 0; sitting < sittings; sitting++ {
				sess, err := eng.Start(context.Background(), examID, fmt.Sprintf("stu%03d", w), int64(w))
				if err != nil {
					errs <- err
					return
				}
				if err := eng.Answer(context.Background(), sess.ID, "q1", "A"); err != nil {
					errs <- err
					return
				}
				if err := eng.Pause(sess.ID); err != nil {
					errs <- err
					return
				}
				if _, err := eng.Status(sess.ID); err != nil {
					errs <- err
					return
				}
				if err := eng.Resume(sess.ID); err != nil {
					errs <- err
					return
				}
				for q := 2; q <= 4; q++ {
					opt := "A"
					if (w+q)%3 == 0 {
						opt = "B"
					}
					if err := eng.Answer(context.Background(), sess.ID, fmt.Sprintf("q%d", q), opt); err != nil {
						errs <- err
						return
					}
				}
				if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Admin scanners overlap every learner operation.
	var adminWG sync.WaitGroup
	for a := 0; a < 8; a++ {
		adminWG.Add(1)
		go func(a int) {
			defer adminWG.Done()
			for !done.Load() {
				_ = eng.SessionSummaries(examID)
				_ = eng.PendingGrades(examID)
				if _, err := eng.CollectResults(examID); err != nil {
					errs <- err
					return
				}
				// The session may not be started yet: not found is fine.
				_, _ = eng.Snapshots(fmt.Sprintf("sess-%06d", a+1))
				_ = eng.SessionCount()
			}
		}(a)
	}
	wg.Wait()
	done.Store(true)
	adminWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := eng.SessionCount(); got != workers*sittings {
		t.Fatalf("SessionCount = %d, want %d", got, workers*sittings)
	}
	res, err := eng.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Students) != workers*sittings {
		t.Fatalf("collected %d sittings, want %d", len(res.Students), workers*sittings)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("collected result invalid: %v", err)
	}
	for _, s := range res.Students {
		if s.AnsweredCount() != 4 {
			t.Errorf("student %s answered %d, want 4", s.StudentID, s.AnsweredCount())
		}
	}
}

// TestRTEConcurrentWithAnswers races SCO-side RTE traffic (RTEExec) against
// the learner's Answer stream on the same session; both write the CMI data
// model, so this must be clean under -race.
func TestRTEConcurrentWithAnswers(t *testing.T) {
	store, examID := shardedExamFixture(t)
	eng := NewEngine(store, nil, 0)
	sess, err := eng.Start(context.Background(), examID, "sco-learner", 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for q := 1; q <= 4; q++ {
			if err := eng.Answer(context.Background(), sess.ID, fmt.Sprintf("q%d", q), "A"); err != nil {
				t.Errorf("answer q%d: %v", q, err)
			}
		}
		if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
			t.Errorf("finish: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			err := eng.RTEExec(sess.ID, func(api *scorm.API) {
				_ = api.LMSGetValue("cmi.core.lesson_location")
				_ = api.LMSSetValue("cmi.core.lesson_status", "incomplete")
			})
			if err != nil {
				t.Errorf("rte exec: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestConcurrentExportAndGrade races exports, which collect every ended
// sitting's row and encode it, against manual grades, finishes and the
// clock expiring the sittings left running, all on one timed exam. Under
// -race it shows that no row is edited while an export reads it. Once the
// race is over every sitting has ended and exports its last grade.
func TestConcurrentExportAndGrade(t *testing.T) {
	ctx := context.Background()
	store, _ := essayExamFixture(t)
	examID := addTimedEssayExam(t, store)
	base := newFakeClock().Now()
	var offset atomic.Int64
	eng := NewEngine(store, func() time.Time { return base.Add(time.Duration(offset.Load())) }, 0)

	const sittings = 16
	ids := make([]string, sittings)
	for i := range ids {
		sess, err := eng.Start(ctx, examID, fmt.Sprintf("w%02d", i), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Answer(ctx, sess.ID, "essay1", "an essay"); err != nil {
			t.Fatal(err)
		}
		if err := eng.Answer(ctx, sess.ID, "mc1", "A"); err != nil {
			t.Fatal(err)
		}
		ids[i] = sess.ID
	}

	var exporters, work sync.WaitGroup
	var done atomic.Bool
	for x := 0; x < 2; x++ {
		exporters.Add(1)
		go func() {
			defer exporters.Done()
			for !done.Load() {
				res, err := eng.CollectResults(examID)
				if err == nil {
					err = analysis.EncodeResult(io.Discard, res)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		work.Add(1)
		go func() {
			defer work.Done()
			for round := 0; round < 20; round++ {
				for _, id := range ids {
					if err := eng.AssignGrade(id, "essay1", float64(round%4)/4); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	work.Add(2)
	go func() { // finishes the even sittings
		defer work.Done()
		for i := 0; i < sittings; i += 2 {
			if _, err := eng.Finish(ctx, ids[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // runs the clock past the limit: the sittings still running expire
		defer work.Done()
		offset.Add(int64(2 * time.Minute))
	}()
	work.Wait()
	for _, id := range ids {
		if err := eng.AssignGrade(id, "essay1", 1); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	exporters.Wait()

	res, err := eng.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Students) != sittings {
		t.Fatalf("collected %d sittings, want all %d ended", len(res.Students), sittings)
	}
	for _, s := range res.Students {
		if r := s.Responses[0]; r.ProblemID != "essay1" || r.Credit != 1 {
			t.Errorf("student %s exports %+v, want essay1 at its last grade 1", s.StudentID, r)
		}
	}
}
