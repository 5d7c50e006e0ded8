package livestats

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/events"
	"mineassess/internal/item"
	"mineassess/internal/stats"
)

// waitSeq blocks until the aggregator has folded the exam's events up to
// seq (the aggregator is an asynchronous subscriber).
func waitSeq(t *testing.T, a *Aggregator, examID string, seq uint64) *ExamLiveStats {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if snap, ok := a.Snapshot(examID); ok && snap.Seq >= seq {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("aggregator never reached seq %d for %s", seq, examID)
	return nil
}

// sittingSpec is one simulated fixed-form sitting: which items the learner
// answers correctly (items absent from the map are answered wrong).
type sittingSpec struct {
	student string
	correct map[string]bool
}

// driveSittings publishes full sitting lifecycles for a 4-item exam onto
// the bus and returns the bus's final sequence number.
func driveSittings(bus *events.Bus, examID string, items []string, specs []sittingSpec) uint64 {
	for i, sp := range specs {
		sid := fmt.Sprintf("sess-%03d", i+1)
		bus.Publish(context.Background(), events.Event{Type: events.SessionStarted, ExamID: examID,
			SessionID: sid, StudentID: sp.student, Problems: items, Total: len(items)})
		for _, pid := range items {
			bus.Publish(context.Background(), events.Event{Type: events.ResponseSubmitted, ExamID: examID,
				SessionID: sid, StudentID: sp.student, ProblemID: pid,
				Correct: sp.correct[pid]})
		}
		bus.Publish(context.Background(), events.Event{Type: events.SessionFinished, ExamID: examID,
			SessionID: sid, StudentID: sp.student})
	}
	return bus.Seq(examID)
}

var fourItems = []string{"q1", "q2", "q3", "q4"}

// testSittings is a small class with real variance: q1 easy, q4 hard, q2
// discriminating.
var testSittings = []sittingSpec{
	{"alice", map[string]bool{"q1": true, "q2": true, "q3": true, "q4": true}},
	{"bob", map[string]bool{"q1": true, "q2": true, "q3": true}},
	{"carol", map[string]bool{"q1": true, "q2": true}},
	{"dave", map[string]bool{"q1": true}},
	{"erin", map[string]bool{}},
	{"frank", map[string]bool{"q1": true, "q2": true, "q3": true}},
}

// offlineResult mirrors testSittings as an analysis.ExamResult so the
// incremental statistics can be checked against the offline stats package.
func offlineResult(t *testing.T) *analysis.ExamResult {
	t.Helper()
	res := &analysis.ExamResult{ExamID: "ex"}
	for i, pid := range fourItems {
		p, err := item.NewMultipleChoice(pid, "q?", []string{"a", "b"}, i%2)
		if err != nil {
			t.Fatal(err)
		}
		res.Problems = append(res.Problems, p)
	}
	for _, sp := range testSittings {
		sr := analysis.StudentResult{StudentID: sp.student}
		for _, pid := range fourItems {
			r := analysis.Response{StudentID: sp.student, ProblemID: pid, Answered: true}
			if sp.correct[pid] {
				r.Credit = 1
			}
			sr.Responses = append(sr.Responses, r)
		}
		res.Students = append(res.Students, sr)
	}
	return res
}

// TestIncrementalMatchesOffline is the core correctness pin: the streaming
// sums must reproduce what internal/stats computes offline from the full
// response matrix — difficulty, point-biserial, KR-20, score mean/SD.
func TestIncrementalMatchesOffline(t *testing.T) {
	bus := events.NewBus(events.Options{})
	defer bus.Close()
	agg := New(bus)
	defer agg.Close()

	last := driveSittings(bus, "ex", fourItems, testSittings)
	snap := waitSeq(t, agg, "ex", last)

	offline, err := stats.Compute(offlineResult(t))
	if err != nil {
		t.Fatal(err)
	}

	if snap.FinishedSessions != len(testSittings) || snap.ActiveSessions != 0 {
		t.Fatalf("sessions: finished %d active %d", snap.FinishedSessions, snap.ActiveSessions)
	}
	if snap.Responses != len(testSittings)*len(fourItems) {
		t.Fatalf("responses = %d", snap.Responses)
	}
	if len(snap.Items) != len(offline.Items) {
		t.Fatalf("item count %d vs %d", len(snap.Items), len(offline.Items))
	}
	const eps = 1e-9
	for i, it := range snap.Items {
		off := offline.Items[i]
		if it.ProblemID != off.ProblemID {
			t.Fatalf("item order: %s vs %s", it.ProblemID, off.ProblemID)
		}
		if math.Abs(it.P-off.P) > eps {
			t.Errorf("%s: live P %.6f vs offline %.6f", it.ProblemID, it.P, off.P)
		}
		switch {
		case off.PointBiserial == 0 && it.PointBiserial != nil && math.Abs(*it.PointBiserial) > eps:
			t.Errorf("%s: live r_pb %.6f vs offline undefined/0", it.ProblemID, *it.PointBiserial)
		case off.PointBiserial != 0 && it.PointBiserial == nil:
			t.Errorf("%s: live r_pb undefined, offline %.6f", it.ProblemID, off.PointBiserial)
		case it.PointBiserial != nil && math.Abs(*it.PointBiserial-off.PointBiserial) > eps:
			t.Errorf("%s: live r_pb %.6f vs offline %.6f", it.ProblemID, *it.PointBiserial, off.PointBiserial)
		}
	}
	if snap.KR20 == nil {
		t.Fatal("live KR-20 undefined")
	}
	if math.Abs(*snap.KR20-offline.KR20) > eps {
		t.Errorf("live KR-20 %.6f vs offline %.6f", *snap.KR20, offline.KR20)
	}
	if math.Abs(snap.MeanScore-offline.Scores.Mean) > eps {
		t.Errorf("mean %.6f vs %.6f", snap.MeanScore, offline.Scores.Mean)
	}
	if math.Abs(snap.ScoreSD-offline.Scores.SD) > eps {
		t.Errorf("sd %.6f vs %.6f", snap.ScoreSD, offline.Scores.SD)
	}
}

func TestHistogramBuckets(t *testing.T) {
	bus := events.NewBus(events.Options{})
	defer bus.Close()
	agg := New(bus)
	defer agg.Close()

	last := driveSittings(bus, "ex", fourItems, testSittings)
	snap := waitSeq(t, agg, "ex", last)

	total := 0
	for _, n := range snap.ScoreHistogram {
		total += n
	}
	if total != len(testSittings) {
		t.Fatalf("histogram holds %d sittings, want %d", total, len(testSittings))
	}
	// alice 4/4 -> top bin; erin 0/4 -> bottom bin.
	if snap.ScoreHistogram[HistogramBins-1] != 1 {
		t.Errorf("top bin = %d, want 1", snap.ScoreHistogram[HistogramBins-1])
	}
	if snap.ScoreHistogram[0] != 1 {
		t.Errorf("bottom bin = %d, want 1", snap.ScoreHistogram[0])
	}
}

// TestMidSittingSnapshot: running difficulty must be visible while sessions
// are still open, before any sitting finishes.
func TestMidSittingSnapshot(t *testing.T) {
	bus := events.NewBus(events.Options{})
	defer bus.Close()
	agg := New(bus)
	defer agg.Close()

	bus.Publish(context.Background(), events.Event{Type: events.SessionStarted, ExamID: "ex",
		SessionID: "s1", Problems: fourItems, Total: 4})
	bus.Publish(context.Background(), events.Event{Type: events.ResponseSubmitted, ExamID: "ex",
		SessionID: "s1", ProblemID: "q1", Correct: true})
	bus.Publish(context.Background(), events.Event{Type: events.ResponseSubmitted, ExamID: "ex",
		SessionID: "s1", ProblemID: "q2", Correct: false})
	snap := waitSeq(t, agg, "ex", bus.Seq("ex"))

	if snap.ActiveSessions != 1 || snap.FinishedSessions != 0 {
		t.Fatalf("active %d finished %d", snap.ActiveSessions, snap.FinishedSessions)
	}
	byID := map[string]ItemStats{}
	for _, it := range snap.Items {
		byID[it.ProblemID] = it
	}
	if got := byID["q1"]; got.Attempts != 1 || got.P != 1 {
		t.Errorf("q1 = %+v", got)
	}
	if got := byID["q2"]; got.Attempts != 1 || got.P != 0 {
		t.Errorf("q2 = %+v", got)
	}
	if snap.KR20 != nil {
		t.Error("KR-20 defined with no finished sittings")
	}
}

// TestAdaptiveEventsFoldIntoDifficultyOnly: adaptive responses update
// attempts/correct but never the form-bound statistics.
func TestAdaptiveEventsFoldIntoDifficultyOnly(t *testing.T) {
	bus := events.NewBus(events.Options{})
	defer bus.Close()
	agg := New(bus)
	defer agg.Close()

	bus.Publish(context.Background(), events.Event{Type: events.AdaptiveStarted, ExamID: "ex", SessionID: "cat-1"})
	bus.Publish(context.Background(), events.Event{Type: events.AdaptiveResponded, ExamID: "ex",
		SessionID: "cat-1", ProblemID: "q1", Correct: true, Theta: 0.4, SE: 0.9})
	bus.Publish(context.Background(), events.Event{Type: events.AdaptiveFinished, ExamID: "ex",
		SessionID: "cat-1", StopReason: "max-items"})
	snap := waitSeq(t, agg, "ex", bus.Seq("ex"))

	if snap.FinishedSessions != 1 || snap.ActiveSessions != 0 || snap.Responses != 1 {
		t.Fatalf("counters: %+v", snap)
	}
	if len(snap.Items) != 1 || snap.Items[0].Attempts != 1 || snap.Items[0].Correct != 1 {
		t.Fatalf("items: %+v", snap.Items)
	}
	hist := 0
	for _, n := range snap.ScoreHistogram {
		hist += n
	}
	if hist != 0 {
		t.Error("adaptive sitting leaked into the fixed-form histogram")
	}
}

func TestGapMarkerCountsAsStaleness(t *testing.T) {
	bus := events.NewBus(events.Options{})
	defer bus.Close()
	agg := New(bus)
	defer agg.Close()
	bus.Publish(context.Background(), events.Event{Type: events.SessionStarted, ExamID: "ex",
		SessionID: "s1", Problems: fourItems, Total: 4})
	waitSeq(t, agg, "ex", 1)

	// Inject a gap as the bus would on overflow.
	agg.fold(events.Event{Type: events.TypeGap, Dropped: 3})
	snap, ok := agg.Snapshot("ex")
	if !ok || snap.Gaps != 1 {
		t.Fatalf("gaps = %+v", snap)
	}
}

func TestNilAggregator(t *testing.T) {
	var a *Aggregator
	if _, ok := a.Snapshot("x"); ok {
		t.Fatal("nil aggregator returned a snapshot")
	}
	a.Close() // must not panic
	if got := New(nil); got != nil {
		t.Fatal("New(nil bus) != nil")
	}
}

// TestFinishWithoutStartNeverGoesNegative: finish events for sessions the
// aggregator never saw start (journal-restored sittings) must not drive
// the active gauge below zero.
func TestFinishWithoutStartNeverGoesNegative(t *testing.T) {
	bus := events.NewBus(events.Options{})
	defer bus.Close()
	agg := New(bus)
	defer agg.Close()

	bus.Publish(context.Background(), events.Event{Type: events.AdaptiveFinished, ExamID: "ex",
		SessionID: "cat-restored", StopReason: "max-items"})
	bus.Publish(context.Background(), events.Event{Type: events.SessionFinished, ExamID: "ex",
		SessionID: "sess-restored"})
	snap := waitSeq(t, agg, "ex", bus.Seq("ex"))
	if snap.ActiveSessions != 0 {
		t.Fatalf("activeSessions = %d, want 0", snap.ActiveSessions)
	}
	if snap.FinishedSessions != 2 {
		t.Fatalf("finishedSessions = %d, want 2", snap.FinishedSessions)
	}
}

// TestPurgeIdleDropsOnlyQuiescentExams: the retention pass releases exam
// aggregates with no active sessions and no open sittings, leaves busy exams
// alone, and lets a purged exam rebuild from empty if events return.
func TestPurgeIdleDropsOnlyQuiescentExams(t *testing.T) {
	bus := events.NewBus(events.Options{})
	defer bus.Close()
	a := New(bus)
	defer a.Close()

	// "done" runs to completion; "busy" keeps one sitting open.
	seqDone := driveSittings(bus, "done", fourItems, testSittings)
	bus.Publish(context.Background(), events.Event{Type: events.SessionStarted, ExamID: "busy",
		SessionID: "s-open", Problems: fourItems, Total: len(fourItems)})
	seqBusy := bus.Seq("busy")
	waitSeq(t, a, "done", seqDone)
	waitSeq(t, a, "busy", seqBusy)

	if got := a.PurgeIdle(); got != 1 {
		t.Fatalf("PurgeIdle = %d, want 1 (only the finished exam)", got)
	}
	if _, ok := a.Snapshot("done"); ok {
		t.Fatal("idle exam aggregate survived the purge")
	}
	snap, ok := a.Snapshot("busy")
	if !ok || snap.ActiveSessions != 1 {
		t.Fatalf("busy exam lost by purge: ok=%v snap=%+v", ok, snap)
	}

	// Purged exams start over cleanly.
	seqDone = driveSittings(bus, "done", fourItems, testSittings[:1])
	snap = waitSeq(t, a, "done", seqDone)
	if snap.FinishedSessions != 1 {
		t.Fatalf("restarted aggregate finished = %d, want 1", snap.FinishedSessions)
	}

	var nilAgg *Aggregator
	if got := nilAgg.PurgeIdle(); got != 0 {
		t.Fatalf("nil aggregator PurgeIdle = %d, want 0", got)
	}
}

// BenchmarkFoldNewItems folds the first response to each of 1,000 distinct
// items of one exam (the size of a calibrated CAT pool), in the arbitrary
// order adaptive selection hands them out, into a fresh aggregate.
func BenchmarkFoldNewItems(b *testing.B) {
	const items = 1000
	evs := make([]events.Event, items)
	for i, k := range rand.New(rand.NewSource(1)).Perm(items) {
		evs[i] = events.Event{Type: events.AdaptiveResponded, ExamID: "pool",
			SessionID: "cat-1", ProblemID: fmt.Sprintf("q%04d", k), Correct: k%2 == 0}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := &Aggregator{exams: make(map[string]*examAgg)}
		for _, e := range evs {
			a.fold(e)
		}
	}
}
