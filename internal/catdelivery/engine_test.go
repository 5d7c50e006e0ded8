package catdelivery

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mineassess/internal/adaptive"
	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
	"mineassess/internal/events"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
)

// withParams returns a copy of the stored exam record rec, with its own
// parameter map, that gives pid the parameters params. The store shares
// rec with every reader, so a test edits such a copy.
func withParams(rec *bank.ExamRecord, pid string, params simulate.IRTParams) *bank.ExamRecord {
	next := *rec
	next.ItemParams = maps.Clone(rec.ItemParams)
	next.ItemParams[pid] = params
	return &next
}

// calibratedExam authors n multiple-choice problems (correct answer "A")
// with difficulties spread over [-spread, spread] and stores them as a
// calibrated exam.
func calibratedExam(t *testing.T, store bank.Storage, examID string, n int, a, spread float64) {
	t.Helper()
	params := make(map[string]simulate.IRTParams, n)
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-q%03d", examID, i+1)
		p, err := newMC(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		b := 0.0
		if n > 1 {
			b = -spread + 2*spread*float64(i)/float64(n-1)
		}
		params[id] = simulate.IRTParams{A: a, B: b}
		ids = append(ids, id)
	}
	if err := store.AddExam(&bank.ExamRecord{
		ID: examID, Title: "Calibrated " + examID,
		ProblemIDs: ids, ItemParams: params,
	}); err != nil {
		t.Fatal(err)
	}
}

// answerAs drives one full adaptive session with a simulated learner of the
// given true ability: correct answers submit "A", wrong ones "B".
func answerAs(t *testing.T, e *Engine, examID, student string, truth float64, cfg Config, seed int64) *Outcome {
	t.Helper()
	s, first, err := e.Start(context.Background(), examID, student, cfg, seed)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	exam, err := e.store.Exam(examID)
	if err != nil {
		t.Fatal(err)
	}
	view := first
	for step := 0; step < 10_000; step++ {
		params := exam.ItemParams[view.ProblemID]
		response := "B"
		if rng.Float64() < params.ProbCorrect(truth) {
			response = "A"
		}
		prog, err := e.SubmitResponse(context.Background(), s.ID, view.ProblemID, response)
		if err != nil {
			t.Fatalf("submit %s: %v", view.ProblemID, err)
		}
		if prog.Done {
			out, err := e.Finish(context.Background(), s.ID)
			if err != nil {
				t.Fatalf("outcome: %v", err)
			}
			return out
		}
		view = prog.Next
	}
	t.Fatal("session never stopped")
	return nil
}

// newMC builds an auto-gradable multiple-choice item whose correct answer
// is always "A".
func newMC(id string) (*item.Problem, error) {
	return item.NewMultipleChoice(id, "Adaptive question "+id,
		[]string{"alpha", "beta", "gamma", "delta"}, 0)
}

func TestSETargetStopsBeforeMaxItems(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 60, 2.0, 3)
	e, err := NewEngine(store, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	out := answerAs(t, e, "pool", "alice", 0.5,
		Config{MaxItems: 60, TargetSE: 0.4}, 7)
	if out.StopReason != StopSETarget {
		t.Fatalf("stop = %s, want %s (administered %d, SE %.3f)",
			out.StopReason, StopSETarget, len(out.Administered), out.SE)
	}
	if len(out.Administered) >= 60 {
		t.Errorf("SE rule should fire before max items; used %d", len(out.Administered))
	}
	if out.SE > 0.4 {
		t.Errorf("final SE = %.3f, want <= 0.4", out.SE)
	}
}

func TestMaxItemsStops(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 20, 1.2, 2)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := answerAs(t, e, "pool", "bob", 0, Config{MaxItems: 5}, 3)
	if out.StopReason != StopMaxItems || len(out.Administered) != 5 {
		t.Fatalf("stop = %s after %d items, want max-items after 5",
			out.StopReason, len(out.Administered))
	}
	// No item repeats.
	seen := make(map[string]bool)
	for _, id := range out.Administered {
		if seen[id] {
			t.Fatalf("item %s administered twice", id)
		}
		seen[id] = true
	}
}

// TestPoolExhaustionBeforeSETarget: a tiny weak pool cannot reach an
// aggressive SE target; the session must stop with pool-exhausted, not spin.
func TestPoolExhaustionBeforeSETarget(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "tiny", 3, 0.5, 1)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// MaxItems above the pool size: the SE target is unreachable with 3
	// weak items, so the session must end on pool exhaustion.
	out := answerAs(t, e, "tiny", "carol", 0, Config{MaxItems: 10, TargetSE: 0.05}, 11)
	if len(out.Administered) != 3 {
		t.Fatalf("administered = %d, want the whole pool (3)", len(out.Administered))
	}
	if out.StopReason != StopPoolExhausted {
		t.Fatalf("stop = %s, want %s", out.StopReason, StopPoolExhausted)
	}
	if out.SE <= 0.05 {
		t.Errorf("SE target should not have been reachable; got %.3f", out.SE)
	}
}

func TestSingleItemPool(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "one", 1, 1.5, 0)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := answerAs(t, e, "one", "dave", 1, Config{}, 5)
	if len(out.Administered) != 1 {
		t.Fatalf("administered = %d, want 1", len(out.Administered))
	}
	if math.IsNaN(out.Theta) || math.IsInf(out.Theta, 0) {
		t.Errorf("theta = %v", out.Theta)
	}
}

// TestAllCorrectAllIncorrectStreams: degenerate response patterns must keep
// the EAP estimate finite and inside the quadrature bounds (the divergence
// guard MLE would need is built into EAP's standard-normal prior).
func TestAllCorrectAllIncorrectStreams(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 15, 1.8, 2)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, response := range map[string]string{"all-correct": "A", "all-incorrect": "B"} {
		t.Run(name, func(t *testing.T) {
			s, view, err := e.Start(context.Background(), "pool", name, Config{MaxItems: 15}, 9)
			if err != nil {
				t.Fatal(err)
			}
			for {
				prog, err := e.SubmitResponse(context.Background(), s.ID, view.ProblemID, response)
				if err != nil {
					t.Fatal(err)
				}
				if math.IsNaN(prog.Theta) || prog.Theta < -4 || prog.Theta > 4 {
					t.Fatalf("theta diverged: %v after %d items", prog.Theta, prog.Administered)
				}
				if math.IsNaN(prog.SE) || math.IsInf(prog.SE, 0) {
					t.Fatalf("SE diverged: %v", prog.SE)
				}
				if prog.Done {
					break
				}
				view = prog.Next
			}
			out, err := e.Finish(context.Background(), s.ID)
			if err != nil {
				t.Fatal(err)
			}
			if name == "all-correct" && out.Theta < 1 {
				t.Errorf("all-correct theta = %.2f, want high", out.Theta)
			}
			if name == "all-incorrect" && out.Theta > -1 {
				t.Errorf("all-incorrect theta = %.2f, want low", out.Theta)
			}
		})
	}
}

func TestSubmitErrors(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 5, 1.5, 1)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Start(context.Background(), "ghost", "x", Config{}, 1); !errors.Is(err, bank.ErrExamNotFound) {
		t.Errorf("unknown exam = %v", err)
	}
	if _, _, err := e.Start(context.Background(), "pool", "x", Config{MaxItems: -1}, 1); !errors.Is(err, adaptive.ErrInvalidConfig) {
		t.Errorf("bad config = %v", err)
	}
	if _, err := e.SubmitResponse(context.Background(), "cat-999999", "q", "A"); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("unknown session = %v", err)
	}
	s, view, err := e.Start(context.Background(), "pool", "erin", Config{MaxItems: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitResponse(context.Background(), s.ID, "not-the-pending-item", "A"); !errors.Is(err, ErrItemNotPending) {
		t.Errorf("wrong item = %v", err)
	}
	prog, err := e.SubmitResponse(context.Background(), s.ID, view.ProblemID, "A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitResponse(context.Background(), s.ID, view.ProblemID, "A"); !errors.Is(err, ErrItemNotPending) {
		t.Errorf("stale item = %v", err)
	}
	if _, err := e.SubmitResponse(context.Background(), s.ID, prog.Next.ProblemID, "A"); err != nil {
		t.Fatal(err)
	}
	// Session is now finished (max-items 2).
	if _, err := e.SubmitResponse(context.Background(), s.ID, "anything", "A"); !errors.Is(err, ErrSessionFinished) {
		t.Errorf("finished submit = %v", err)
	}
	if _, err := e.NextItem(s.ID); !errors.Is(err, ErrSessionFinished) {
		t.Errorf("finished next = %v", err)
	}
	// Finish is idempotent and reports the recorded stop reason.
	out, err := e.Finish(context.Background(), s.ID)
	if err != nil || out.StopReason != StopMaxItems {
		t.Errorf("finish after stop = %+v, %v", out, err)
	}
}

func TestUncalibratedExamRejected(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	p, err := newMC("plain-q1")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	if err := store.AddExam(&bank.ExamRecord{ID: "plain", ProblemIDs: []string{"plain-q1"}}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Start(context.Background(), "plain", "x", Config{}, 1); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("uncalibrated start = %v, want ErrNotCalibrated", err)
	}
}

// TestExposureCapSpreadsItems: with a cap, the most informative item cannot
// be handed to every session; exposure rates stay at or near the cap with
// the least-exposed fallback keeping sessions progressing.
func TestExposureCapSpreadsItems(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 30, 1.5, 2)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 20
	uncapped, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	firstItems := make(map[string]int)
	for i := 0; i < sessions; i++ {
		student := fmt.Sprintf("s%02d", i)
		answerAs(t, e, "pool", student, 0, Config{MaxItems: 5, MaxExposure: 0.3}, int64(i))
		_, first, err := uncapped.Start(context.Background(), "pool", student, Config{MaxItems: 5}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		firstItems[first.ProblemID]++
	}
	// Uncapped max-information hands every session the same first item.
	if len(firstItems) != 1 {
		t.Fatalf("uncapped first items = %v, want a single hot item", firstItems)
	}
	over := 0
	for id, rate := range exposureRates(e, "pool") {
		// The cap admits the administration that crosses it, so allow one
		// session of slack.
		if rate > 0.3+1.0/sessions+1e-9 {
			over++
			t.Logf("item %s rate %.2f", id, rate)
		}
	}
	if over > 0 {
		t.Errorf("%d items exceeded the exposure cap", over)
	}
}

// exposureRates reads the exam's ledger: each administered item's
// administrations per session started on the exam.
func exposureRates(e *Engine, examID string) map[string]float64 {
	l := e.ledgerOf(examID)
	l.mu.Lock()
	defer l.mu.Unlock()
	rates := make(map[string]float64, len(l.handedOut))
	for id, n := range l.handedOut {
		rates[id] = float64(n) / float64(l.starts)
	}
	return rates
}

// TestRestartRestoresActiveSession: a mid-test session persisted through a
// journaled bank continues after an engine restart with identical state.
func TestRestartRestoresActiveSession(t *testing.T) {
	dir := t.TempDir()
	j, err := bank.OpenJournal(dir, bank.NewSharded(4), bank.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calibratedExam(t, j, "pool", 12, 1.6, 2)
	e1, err := NewEngine(banktest.Guard(t, j), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, view, err := e1.Start(context.Background(), "pool", "frank", Config{MaxItems: 6, TargetSE: 0.1}, 21)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := e1.SubmitResponse(context.Background(), s.ID, view.ProblemID, "A")
	if err != nil {
		t.Fatal(err)
	}
	prog, err = e1.SubmitResponse(context.Background(), s.ID, prog.Next.ProblemID, "B")
	if err != nil {
		t.Fatal(err)
	}
	pendingBefore := prog.Next.ProblemID
	thetaBefore := prog.Theta
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: reopen the journal and build a fresh engine over it.
	j2, err := bank.OpenJournal(dir, bank.NewSharded(4), bank.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e2, err := NewEngine(banktest.Guard(t, j2), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e2.Status(s.ID)
	if err != nil {
		t.Fatalf("restored engine lost the session: %v", err)
	}
	if st.Administered != 2 || st.PendingID != pendingBefore {
		t.Fatalf("restored status = %+v, want 2 administered pending %s", st, pendingBefore)
	}
	if math.Abs(st.Theta-thetaBefore) > 1e-9 {
		t.Errorf("restored theta = %v, want %v", st.Theta, thetaBefore)
	}
	// The session continues to completion on the new engine.
	next, err := e2.NextItem(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	for {
		prog, err := e2.SubmitResponse(context.Background(), s.ID, next.ProblemID, "A")
		if err != nil {
			t.Fatal(err)
		}
		if prog.Done {
			break
		}
		next = prog.Next
	}
	// New sessions on the restarted engine must not reuse restored IDs.
	s2, _, err := e2.Start(context.Background(), "pool", "grace", Config{MaxItems: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ID == s.ID {
		t.Error("session ID collision after restart")
	}
}

// TestRestoreLeavesStoredRecord: restore re-derives an active sitting's
// estimate from the exam's current parameters on its own copy of the
// record. The stored record, which the bank shares with every reader,
// keeps the estimate it was persisted with.
func TestRestoreLeavesStoredRecord(t *testing.T) {
	dir := t.TempDir()
	j, err := bank.OpenJournal(dir, bank.NewSharded(4), bank.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calibratedExam(t, j, "pool", 10, 1.5, 1)
	e1, err := NewEngine(banktest.Guard(t, j), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, view, err := e1.Start(context.Background(), "pool", "hana", Config{MaxItems: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := e1.SubmitResponse(context.Background(), s.ID, view.ProblemID, "A")
	if err != nil {
		t.Fatal(err)
	}
	// Shift every difficulty, as a recalibration between the persist and
	// the restart would.
	rec, err := j.Exam("pool")
	if err != nil {
		t.Fatal(err)
	}
	for pid, params := range rec.ItemParams {
		params.B++
		rec = withParams(rec, pid, params)
	}
	if err := j.UpdateExam(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := bank.OpenJournal(dir, bank.NewSharded(4), bank.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	store := banktest.Guard(t, j2)
	e2, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e2.Status(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Theta == prog.Theta {
		t.Fatalf("restored theta %v did not move with the shifted parameters", st.Theta)
	}
	stored, err := store.AdaptiveSession(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Theta != prog.Theta || stored.SE != prog.SE {
		t.Errorf("stored estimate = (%v, %v) after restore, want the persisted (%v, %v)",
			stored.Theta, stored.SE, prog.Theta, prog.SE)
	}
}

// TestRecalibrateFeedbackLoop: sessions from an easier-than-authored item
// pull its stored difficulty down.
func TestRecalibrateFeedbackLoop(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 8, 1.5, 1.5)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := store.Exam("pool")
	if err != nil {
		t.Fatal(err)
	}
	// Learners of middling true ability answer everything correctly: the
	// pool is easier than authored, so calibration must lower difficulty.
	for i := 0; i < 6; i++ {
		s, view, err := e.Start(context.Background(), "pool", fmt.Sprintf("h%d", i), Config{MaxItems: 8}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		for {
			prog, err := e.SubmitResponse(context.Background(), s.ID, view.ProblemID, "A")
			if err != nil {
				t.Fatal(err)
			}
			if prog.Done {
				break
			}
			view = prog.Next
		}
	}
	if got := drainedCount(e); got != 6 {
		t.Fatalf("finished records = %d, want 6", got)
	}
	cal, err := e.Recalibrate("pool", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Updated) == 0 {
		t.Fatal("no items recalibrated")
	}
	after, err := store.Exam("pool")
	if err != nil {
		t.Fatal(err)
	}
	for pid := range cal.Updated {
		if after.ItemParams[pid].B >= before.ItemParams[pid].B {
			t.Errorf("item %s difficulty did not drop: %.3f -> %.3f",
				pid, before.ItemParams[pid].B, after.ItemParams[pid].B)
		}
	}
	// Recalibrating with no new responses is still well-defined.
	if _, err := e.Recalibrate("pool", 5); err != nil {
		t.Errorf("second recalibrate: %v", err)
	}
	if _, err := e.Recalibrate("ghost", 5); !errors.Is(err, bank.ErrExamNotFound) {
		t.Errorf("ghost recalibrate = %v", err)
	}
}

// TestConcurrentAdaptiveSessions hammers one shared pool with parallel
// sessions; run under -race. The exam's ledger, the registry and the
// storage backend are all on the contended path.
func TestConcurrentAdaptiveSessions(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(8))
	calibratedExam(t, store, "pool", 40, 1.5, 2)
	e, err := NewEngine(store, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 24
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			s, view, err := e.Start(context.Background(), "pool", fmt.Sprintf("racer-%02d", w),
				Config{MaxItems: 10, TargetSE: 0.3, MaxExposure: 0.5, Selector: SelectorRandomesque}, int64(w))
			if err != nil {
				errs <- err
				return
			}
			for {
				response := "B"
				if rng.Float64() < 0.6 {
					response = "A"
				}
				prog, err := e.SubmitResponse(context.Background(), s.ID, view.ProblemID, response)
				if err != nil {
					errs <- err
					return
				}
				if _, err := e.Status(s.ID); err != nil {
					errs <- err
					return
				}
				if prog.Done {
					return
				}
				view = prog.Next
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.SessionCount(); got != workers {
		t.Errorf("sessions = %d, want %d", got, workers)
	}
	if got := drainedCount(e); got != workers {
		t.Errorf("finished records = %d, want %d", got, workers)
	}
}

// TestRestoreTolerance: persisted sessions whose exam was deleted must not
// crash-loop engine construction; finished sessions restore without a pool.
func TestRestoreTolerance(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 6, 1.5, 1)
	e1, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One finished, one active session.
	answerAs(t, e1, "pool", "fin", 0, Config{MaxItems: 2}, 1)
	s, _, err := e1.Start(context.Background(), "pool", "act", Config{MaxItems: 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Delete the exam out from under both sessions (legal: no cascade).
	if err := store.DeleteExam("pool"); err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatalf("NewEngine over orphaned sessions: %v", err)
	}
	// The finished session restores (no pool needed); the active one is
	// skipped and reported.
	if got := e2.RestoreSkipped(); got != 1 {
		t.Errorf("RestoreSkipped = %d, want 1 (the active session)", got)
	}
	if _, err := e2.Status(s.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("orphaned active session should not be registered: Status = %v", err)
	}
	if drainedCount(e2) != 1 {
		t.Errorf("finished record lost: ledger holds %d", drainedCount(e2))
	}
}

// TestPurgeFinished: the retention pass drops finished sessions from both
// registry and storage while active ones keep running.
func TestPurgeFinished(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 8, 1.5, 1)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		answerAs(t, e, "pool", fmt.Sprintf("done%d", i), 0, Config{MaxItems: 2}, int64(i))
	}
	active, view, err := e.Start(context.Background(), "pool", "live", Config{MaxItems: 8}, 9)
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.PurgeFinished()
	if err != nil || n != 3 {
		t.Fatalf("PurgeFinished = %d, %v; want 3", n, err)
	}
	if got := e.SessionCount(); got != 1 {
		t.Errorf("registry after purge = %d, want 1", got)
	}
	if got := len(store.AdaptiveSessionIDs()); got != 1 {
		t.Errorf("stored records after purge = %d, want 1", got)
	}
	// The exam's ledger keeps the purged sessions' calibration data.
	if got := drainedCount(e); got != 3 {
		t.Errorf("ledger after purge = %d, want 3", got)
	}
	// The active session is untouched and still answers.
	if _, err := e.SubmitResponse(context.Background(), active.ID, view.ProblemID, "A"); err != nil {
		t.Errorf("active session broken by purge: %v", err)
	}
	// Idempotent.
	if n, err := e.PurgeFinished(); err != nil || n != 0 {
		t.Errorf("second purge = %d, %v", n, err)
	}
}

// flakyDeleteStore fails DeleteAdaptiveSession for one session ID.
type flakyDeleteStore struct {
	bank.Storage
	failID string
}

func (f *flakyDeleteStore) DeleteAdaptiveSession(id string) error {
	if id != "" && id == f.failID {
		return errors.New("backend flake")
	}
	return f.Storage.DeleteAdaptiveSession(id)
}

// TestPurgeFinishedContinuesPastErrors: one session's storage failure must
// not abort the sweep — the other finished sessions still purge, the count
// reflects what actually happened, the failure surfaces in the joined
// error, and the failed session remains purgeable once the backend
// recovers.
func TestPurgeFinishedContinuesPastErrors(t *testing.T) {
	inner := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, inner, "pool", 8, 1.5, 1)
	store := &flakyDeleteStore{Storage: inner}
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		answerAs(t, e, "pool", fmt.Sprintf("done%d", i), 0, Config{MaxItems: 2}, int64(i))
	}
	ids := e.SessionIDs()
	if len(ids) != 3 {
		t.Fatalf("session count = %d", len(ids))
	}
	store.failID = ids[1]

	n, err := e.PurgeFinished()
	if n != 2 {
		t.Errorf("purged = %d, want 2 (sweep must continue past the failure)", n)
	}
	if err == nil || !strings.Contains(err.Error(), ids[1]) {
		t.Errorf("error = %v, want a joined error naming session %s", err, ids[1])
	}
	if got := e.SessionCount(); got != 1 {
		t.Errorf("registry after flaky purge = %d, want the failed session only", got)
	}

	// Backend recovers: the survivor purges on the next sweep.
	store.failID = ""
	if n, err := e.PurgeFinished(); err != nil || n != 1 {
		t.Errorf("retry purge = %d, %v; want 1, nil", n, err)
	}
	if got := len(inner.AdaptiveSessionIDs()); got != 0 {
		t.Errorf("stored records after retry = %d, want 0", got)
	}
}

// failingStore wraps a Storage and fails PutAdaptiveSession on demand.
type failingStore struct {
	bank.Storage
	failPuts bool
}

func (f *failingStore) PutAdaptiveSession(rec *bank.AdaptiveSessionRecord) error {
	if f.failPuts {
		return errors.New("disk full")
	}
	return f.Storage.PutAdaptiveSession(rec)
}

// TestSubmitRollsBackOnPersistFailure: a failed persist must leave the
// session exactly as before the submit, so the client's retry of the same
// item succeeds instead of hitting ITEM_NOT_PENDING.
func TestSubmitRollsBackOnPersistFailure(t *testing.T) {
	inner := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, inner, "pool", 6, 1.5, 1)
	store := &failingStore{Storage: inner}
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, view, err := e.Start(context.Background(), "pool", "rb", Config{MaxItems: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	store.failPuts = true
	if _, err := e.SubmitResponse(context.Background(), s.ID, view.ProblemID, "A"); err == nil {
		t.Fatal("submit should surface the persist failure")
	}
	st, err := e.Status(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Administered != 0 || st.PendingID != view.ProblemID || st.State != bank.AdaptiveStateActive {
		t.Fatalf("state after failed submit = %+v, want untouched pre-submit state", st)
	}
	// The retry of the SAME item succeeds once the store recovers.
	store.failPuts = false
	prog, err := e.SubmitResponse(context.Background(), s.ID, view.ProblemID, "A")
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if prog.Administered != 1 {
		t.Errorf("retry administered = %d", prog.Administered)
	}
	// A rolled-back finish leaves no phantom ledger entry and stays active.
	store.failPuts = true
	if _, err := e.SubmitResponse(context.Background(), s.ID, prog.Next.ProblemID, "A"); err == nil {
		t.Fatal("finishing submit should surface the persist failure")
	}
	if drainedCount(e) != 0 {
		t.Error("rolled-back finish leaked a ledger entry")
	}
	store.failPuts = false
	final, err := e.SubmitResponse(context.Background(), s.ID, prog.Next.ProblemID, "A")
	if err != nil || !final.Done {
		t.Fatalf("final retry = %+v, %v", final, err)
	}
	if drainedCount(e) != 1 {
		t.Errorf("ledger after durable finish = %d, want 1", drainedCount(e))
	}
}

// TestMinItemsAboveMaxRejected: a floor above the ceiling would silently
// disable the SE rule, so Start must reject it with a typed error — both
// explicitly and when MaxItems defaults to the pool size.
func TestMinItemsAboveMaxRejected(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 5, 1.5, 1)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Start(context.Background(), "pool", "x", Config{MaxItems: 3, MinItems: 4, TargetSE: 0.4}, 1); !errors.Is(err, adaptive.ErrInvalidConfig) {
		t.Errorf("MinItems > MaxItems = %v, want ErrInvalidConfig", err)
	}
	if _, _, err := e.Start(context.Background(), "pool", "x", Config{MinItems: 6, TargetSE: 0.4}, 1); !errors.Is(err, adaptive.ErrInvalidConfig) {
		t.Errorf("MinItems > pool size = %v, want ErrInvalidConfig", err)
	}
	if _, _, err := e.Start(context.Background(), "pool", "x", Config{MaxItems: 3, MinItems: 3}, 1); err != nil {
		t.Errorf("MinItems == MaxItems should be legal: %v", err)
	}
}

// TestPurgeForgetsMonitor: the monitor ring lives on its session, so a
// purged session's snapshots are gone with it.
func TestPurgeForgetsMonitor(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 4, 1.5, 1)
	e, err := NewEngine(store, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	out := answerAs(t, e, "pool", "m", 0, Config{MaxItems: 2}, 1)
	if snaps, err := e.Snapshots(out.SessionID); err != nil || len(snaps) == 0 {
		t.Fatalf("before purge: Snapshots = %v, %v; want captures", snaps, err)
	}
	if _, err := e.PurgeFinished(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshots(out.SessionID); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("after purge: Snapshots err = %v, want ErrSessionNotFound", err)
	}
}

// TestSnapshotsSequenceAndBound: start and every response capture with
// the next sequence number, the ring keeps only the newest
// monitorCapacity, and an unknown session is ErrSessionNotFound.
func TestSnapshotsSequenceAndBound(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 8, 1.5, 1)
	e, err := NewEngine(store, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, view, err := e.Start(context.Background(), "pool", "m", Config{MaxItems: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for captures := 1; ; captures++ {
		snaps, err := e.Snapshots(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := min(captures, 3)
		if len(snaps) != want {
			t.Fatalf("after %d captures: %d retained, want %d", captures, len(snaps), want)
		}
		for i, snap := range snaps {
			if snap.Seq != captures-want+1+i || snap.SessionID != s.ID {
				t.Fatalf("after %d captures: %+v, want seqs %d..%d", captures, snaps, captures-want+1, captures)
			}
		}
		if view == nil {
			break
		}
		prog, err := e.SubmitResponse(context.Background(), s.ID, view.ProblemID, "A")
		if err != nil {
			t.Fatal(err)
		}
		view = prog.Next
	}
	if _, err := e.Snapshots("cat-999999"); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("unknown session: err = %v, want ErrSessionNotFound", err)
	}
}

// TestInfoGridCacheSharedAndInvalidated: sittings on one exam share one
// pool, information grid included, across session writes. An UpdateExam
// (what Recalibrate persists) and an UpdateProblem (an authoring edit) each
// reach the next Start, while sittings in flight keep their pool.
func TestInfoGridCacheSharedAndInvalidated(t *testing.T) {
	ctx := context.Background()
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "gx", 40, 1.2, 2.5)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, view, err := e.Start(ctx, "gx", "stu1", Config{MaxItems: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A session write between the starts does not move the bank's
	// generation.
	if _, err := e.SubmitResponse(ctx, s1.ID, view.ProblemID, "A"); err != nil {
		t.Fatal(err)
	}
	s2, _, err := e.Start(ctx, "gx", "stu2", Config{MaxItems: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.pool == nil || s1.pool.grid == nil || s1.pool != s2.pool {
		t.Fatal("sittings on one exam must share one pool and its grid")
	}
	authored := s1.pool.items[s1.pool.rows["gx-q001"]].Params
	question := s1.pool.problem("gx-q002").Question

	// A recalibration-style parameter change reaches the next Start.
	rec, err := store.Exam("gx")
	if err != nil {
		t.Fatal(err)
	}
	refit := rec.ItemParams["gx-q001"]
	refit.B += 0.5
	rec = withParams(rec, "gx-q001", refit)
	if err := store.UpdateExam(rec); err != nil {
		t.Fatal(err)
	}
	s3, _, err := e.Start(ctx, "gx", "stu3", Config{MaxItems: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s3.pool == s1.pool || s3.pool.grid == s1.pool.grid {
		t.Fatal("stale pool served after a parameter change")
	}
	if got := s3.pool.items[s3.pool.rows["gx-q001"]].Params; got != refit {
		t.Errorf("next Start params = %+v, want the refit %+v", got, refit)
	}

	// An authoring edit to a pool problem reaches the next Start too.
	p, err := store.Problem("gx-q002")
	if err != nil {
		t.Fatal(err)
	}
	p = p.Clone()
	p.Question = "edited"
	if err := store.UpdateProblem(p); err != nil {
		t.Fatal(err)
	}
	s4, _, err := e.Start(ctx, "gx", "stu4", Config{MaxItems: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s4.pool == s3.pool {
		t.Fatal("stale pool served after a problem edit")
	}
	if got := s4.pool.problem("gx-q002").Question; got != "edited" {
		t.Errorf("next Start question = %q, want %q", got, "edited")
	}

	// Sittings in flight keep their start-time pool, and still answer.
	if got := s1.pool.items[s1.pool.rows["gx-q001"]].Params; got != authored {
		t.Errorf("in-flight params = %+v, want the authored %+v", got, authored)
	}
	if got := s1.pool.problem("gx-q002").Question; got != question {
		t.Errorf("in-flight question = %q, want %q", got, question)
	}
	next, err := e.NextItem(s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitResponse(ctx, s1.ID, next.ProblemID, "A"); err != nil {
		t.Errorf("in-flight sitting broken by the rebuild: %v", err)
	}
}

// TestFailedFinishLeavesSessionUnchanged: a Finish whose persist fails
// leaves the session exactly as it was — status, pending item and the
// exam's ledger — and publishes nothing; the retry then finishes the
// sitting.
func TestFailedFinishLeavesSessionUnchanged(t *testing.T) {
	ctx := context.Background()
	inner := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, inner, "pool", 6, 1.5, 1)
	store := &failingStore{Storage: inner}
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus(events.Options{})
	defer bus.Close()
	e.SetEventBus(bus)
	sub := bus.Subscribe(events.SubscribeOptions{ExamID: "pool"})
	defer sub.Close()

	s, view, err := e.Start(ctx, "pool", "quitter", Config{MaxItems: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitResponse(ctx, s.ID, view.ProblemID, "A"); err != nil {
		t.Fatal(err)
	}
	status, err := e.Status(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := e.NextItem(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	seq := bus.Seq("pool")

	store.failPuts = true
	if _, err := e.Finish(ctx, s.ID); err == nil {
		t.Fatal("finish should surface the persist failure")
	}
	if got, err := e.Status(s.ID); err != nil || got != status {
		t.Errorf("status after failed finish = %+v, %v; want %+v", got, err, status)
	}
	if got, err := e.NextItem(s.ID); err != nil || !reflect.DeepEqual(got, pending) {
		t.Errorf("next item after failed finish = %+v, %v; want %+v", got, err, pending)
	}
	if n := drainedCount(e); n != 0 {
		t.Errorf("failed finish drained %d ledger entries", n)
	}
	if got := bus.Seq("pool"); got != seq {
		t.Errorf("failed finish published %d event(s)", got-seq)
	}
	for _, ev := range sub.Take(nil) {
		if ev.Type == events.AdaptiveFinished {
			t.Errorf("failed finish published %+v", ev)
		}
	}

	store.failPuts = false
	out, err := e.Finish(ctx, s.ID)
	if err != nil || out.StopReason != StopByCaller || len(out.Administered) != 1 {
		t.Fatalf("retried finish = %+v, %v", out, err)
	}
	if st, err := e.Status(s.ID); err != nil || st.State != bank.AdaptiveStateFinished {
		t.Errorf("status after retry = %+v, %v", st, err)
	}
	if rec, err := inner.AdaptiveSession(s.ID); err != nil || rec.State != bank.AdaptiveStateFinished {
		t.Errorf("stored record after retry = %+v, %v", rec, err)
	}
	if n := drainedCount(e); n != 1 {
		t.Errorf("ledger after retry = %d, want 1", n)
	}
	finished := 0
	for _, ev := range sub.Take(nil) {
		if ev.Type == events.AdaptiveFinished {
			finished++
		}
	}
	if finished != 1 {
		t.Errorf("adaptive.finished events after retry = %d, want 1", finished)
	}
}

// ledgerOf returns the exam's ledger, or nil when no sitting made one.
func (e *Engine) ledgerOf(examID string) *examLedger {
	e.ledgerMu.Lock()
	defer e.ledgerMu.Unlock()
	return e.ledgers[examID]
}

// drained lists the session IDs of the finished records in the exam's
// ledger, sorted.
func drained(e *Engine, examID string) []string {
	l := e.ledgerOf(examID)
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var ids []string
	for _, rec := range l.finished {
		ids = append(ids, rec.ID)
	}
	slices.Sort(ids)
	return ids
}

// drainedCount counts the finished records in every exam's ledger.
func drainedCount(e *Engine) int {
	e.ledgerMu.Lock()
	defer e.ledgerMu.Unlock()
	n := 0
	for _, l := range e.ledgers {
		l.mu.Lock()
		n += len(l.finished)
		l.mu.Unlock()
	}
	return n
}

// TestEachFinishedSittingDrainsOnce: a finished sitting is in its exam's
// ledger once, whether its last respond finished it, Finish was repeated (also
// concurrently), Finish ended it early, or a new engine restored it from
// the same journal. An active sitting is not in the ledger.
func TestEachFinishedSittingDrainsOnce(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	j, err := bank.OpenJournal(dir, bank.NewSharded(4), bank.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calibratedExam(t, j, "pool", 8, 1.5, 1)
	e1, err := NewEngine(banktest.Guard(t, j), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// answerAs calls Finish once the last respond has finished the sitting.
	last := answerAs(t, e1, "pool", "last", 0, Config{MaxItems: 3}, 1)
	if _, err := e1.Finish(ctx, last.SessionID); err != nil {
		t.Fatal(err)
	}
	early, _, err := e1.Start(ctx, "pool", "early", Config{MaxItems: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e1.Finish(ctx, early.ID); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, _, err := e1.Start(ctx, "pool", "active", Config{MaxItems: 3}, 3); err != nil {
		t.Fatal(err)
	}
	want := []string{last.SessionID, early.ID}
	slices.Sort(want)
	if got := drained(e1, "pool"); !slices.Equal(got, want) {
		t.Errorf("ledger = %v, want %v", got, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := bank.OpenJournal(dir, bank.NewSharded(4), bank.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e2, err := NewEngine(banktest.Guard(t, j2), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := drained(e2, "pool"); !slices.Equal(got, want) {
		t.Errorf("ledger after restore = %v, want %v", got, want)
	}
	if n := drainedCount(e2); n != len(want) {
		t.Errorf("ledger length after restore = %d, want %d", n, len(want))
	}
}

// step is one answered item of a sitting and the estimate after it.
type step struct {
	item  string
	theta float64
}

// respondAll answers every item a session hands out with "A", starting at
// view, until it stops.
func respondAll(t *testing.T, e *Engine, sessionID string, view *ItemView) []step {
	t.Helper()
	var steps []step
	for view != nil {
		prog, err := e.SubmitResponse(context.Background(), sessionID, view.ProblemID, "A")
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step{view.ProblemID, prog.Theta})
		view = prog.Next
	}
	return steps
}

// TestRecalibrateRebuildsGridForNextStart: after Recalibrate the next Start
// selects against the refit parameters, while a session already in flight
// keeps its start-time pool and grid. Each sitting is compared with the
// same sitting on a fresh engine over a bank that holds the parameters it
// should see.
func TestRecalibrateRebuildsGridForNextStart(t *testing.T) {
	ctx := context.Background()
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 8, 1.5, 1.5)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Learners answer everything correctly: the pool is easier than
	// authored.
	for i := 0; i < 6; i++ {
		s, view, err := e.Start(ctx, "pool", fmt.Sprintf("h%d", i), Config{MaxItems: 8}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		respondAll(t, e, s.ID, view)
	}
	cfg := Config{MaxItems: 4}
	inflight, inflightView, err := e.Start(ctx, "pool", "inflight", cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cal, err := e.Recalibrate("pool", 5); err != nil || len(cal.Updated) == 0 {
		t.Fatalf("recalibrate = %+v, %v", cal, err)
	}
	refit, err := store.Exam("pool")
	if err != nil {
		t.Fatal(err)
	}

	reference := func(refit *bank.ExamRecord) []step {
		t.Helper()
		store := banktest.Guard(t, bank.NewSharded(4))
		calibratedExam(t, store, "pool", 8, 1.5, 1.5)
		if refit != nil {
			if err := store.UpdateExam(refit); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := NewEngine(store, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, view, err := ref.Start(ctx, "pool", "ref", cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		return respondAll(t, ref, s.ID, view)
	}
	authored, refitted := reference(nil), reference(refit)
	items := func(steps []step) []string {
		var ids []string
		for _, st := range steps {
			ids = append(ids, st.item)
		}
		return ids
	}
	if slices.Equal(items(authored), items(refitted)) {
		t.Fatalf("authored and refit parameters select the same items %v; the test cannot tell the grids apart",
			items(authored))
	}

	// The next Start rebuilds the exam's grid before the in-flight session
	// answers, so the in-flight session could see the rebuilt one.
	next, view, err := e.Start(ctx, "pool", "next", cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := respondAll(t, e, inflight.ID, inflightView); !slices.Equal(got, authored) {
		t.Errorf("in-flight session = %v, want its start-time selection %v", got, authored)
	}
	if got := respondAll(t, e, next.ID, view); !slices.Equal(got, refitted) {
		t.Errorf("next Start = %v, want the refit selection %v", got, refitted)
	}
}
