package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"mineassess/internal/analysis"
	"mineassess/perfbench/internal/span"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%v of 1..1000 = %v, want %v", 100*c.q, got, c.want)
		}
	}
	if sort.Float64sAreSorted(xs) {
		t.Fatal("percentile sorted its caller's samples in place")
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, // p99 needs 1,000 samples
		{100, 0.90, true}, {99, 0.90, false}, // p90 needs 100
		{20, 0.5, true}, {19, 0.5, false},
	} {
		xs := make([]float64, c.n)
		if got := summarize(xs, c.q).Enough; got != c.want {
			t.Errorf("n=%d q=%v: enough=%v (beyond=%d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
}

// runFake drives four users of five requests each, due 10 ms apart, against
// a server that stalls the third request it receives for `stall`.
func runFake(t *testing.T, stall time.Duration) []sample {
	t.Helper()
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	const users, steps = 4, 5
	var us []*user
	for u := 0; u < users; u++ {
		dues := make([]time.Duration, steps)
		for i := range dues {
			dues[i] = time.Duration(i*users+u) * 10 * time.Millisecond
		}
		us = append(us, &user{dues: dues, step: func(i int) (string, bool, error) {
			resp, err := srv.Client().Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
			return "fake", i < steps-1, err
		}})
	}
	return openLoop(context.Background(), time.Now(), us)
}

func TestStalledServerRaisesLatencyNotOfferedRate(t *testing.T) {
	const stall = 300 * time.Millisecond
	base, stalled := runFake(t, 0), runFake(t, stall)
	if len(base) != 20 || len(stalled) != 20 {
		t.Fatalf("sent %d and %d requests, want all 20 planned in both runs", len(base), len(stalled))
	}
	offsets := func(ss []sample) []time.Duration {
		var out []time.Duration
		for _, s := range ss {
			if s.err != nil {
				t.Fatalf("request failed: %v", s.err)
			}
			out = append(out, s.due.Sub(ss[0].due))
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	bo, so := offsets(base), offsets(stalled)
	for i := range bo {
		if bo[i] != so[i] {
			t.Fatalf("due offsets differ at %d: %v vs %v; the stall must not move the schedule", i, bo[i], so[i])
		}
	}
	late := func(ss []sample) (n int, worst time.Duration) {
		for _, s := range ss {
			if s.lateness() > stall/3 {
				n++
			}
			worst = max(worst, s.latency())
		}
		return n, worst
	}
	baseLate, baseWorst := late(base)
	stLate, stWorst := late(stalled)
	// Requests due during the stall wait behind it: they go out late and
	// their latency, timed from the due time, includes the wait.
	if stLate < 5 || baseLate != 0 {
		t.Errorf("requests sent more than %v late: %d stalled, %d baseline; want >= 5 and 0", stall/3, stLate, baseLate)
	}
	if stWorst < stall || baseWorst >= stall {
		t.Errorf("worst latency %v stalled, %v baseline; want the stall (%v) to show", stWorst, baseWorst, stall)
	}
	var waited int
	for _, s := range stalled {
		if !s.slept && s.latency() > stall/2 {
			waited++
		}
	}
	if waited < 2 {
		t.Errorf("%d requests queued behind the stall had latency over %v, want several", waited, stall/2)
	}
}

func TestScoreCheckFailsOnWrongScore(t *testing.T) {
	b, err := authorBank(1)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"p0001", "p0002", "p0003"}
	p := &pass{bank: b}
	s := &fixedSitting{p: p, id: "s1", order: order, answers: map[string]string{
		"p0001": b.key["p0001"], // right
		"p0002": b.key["p0002"], // right
		"p0003": wrongKey(b.key["p0003"]),
	}}
	graded := func(credits ...float64) *analysis.StudentResult {
		r := &analysis.StudentResult{StudentID: "x"}
		for i, c := range credits {
			r.Responses = append(r.Responses, analysis.Response{ProblemID: order[i], Credit: c, Answered: true})
		}
		return r
	}
	s.checkScore(graded(1, 1, 0))
	if p.checks.n != 0 || p.checks.passed != 1 {
		t.Fatalf("correct score: %d failures, %d passes; want 0 and 1", p.checks.n, p.checks.passed)
	}
	s.checkScore(graded(1, 1, 1))
	if p.checks.n != 1 {
		t.Fatalf("score 3 for two right answers: %d failures, want 1", p.checks.n)
	}
	s.checkScore(graded(1, 1))
	if p.checks.n != 2 {
		t.Fatalf("missing response: %d failures, want 2", p.checks.n)
	}
}

func wrongKey(k string) string {
	if k == "A" {
		return "B"
	}
	return "A"
}

func TestReconcileNesting(t *testing.T) {
	ms := int64(time.Millisecond)
	ok := []span.Span{
		{Name: "sdk.fixed.start", ReqID: "1", Start: 0, End: 10 * ms},
		{Name: "handler", ReqID: "1", Start: 1 * ms, End: 9 * ms},
		{Name: "bank.read", ReqID: "1", Start: 2 * ms, End: 4 * ms},
	}
	reqs, problems := joinSpans(ok)
	if len(problems) > 0 || len(reconcile(reqs)) > 0 {
		t.Fatalf("nested spans flagged: %v %v", problems, reconcile(reqs))
	}
	if r := reqs[0]; r.residual() != 2*time.Millisecond || r.layerSelf() != 6*time.Millisecond || r.bankTime() != 2*time.Millisecond {
		t.Fatalf("self times %v %v %v, want 2ms 6ms 2ms", r.residual(), r.layerSelf(), r.bankTime())
	}
	bad := append([]span.Span(nil), ok...)
	bad[2].End = 12 * ms // the bank call outlives its handler and the SDK call
	reqs, _ = joinSpans(bad)
	if len(reconcile(reqs)) == 0 {
		t.Fatal("a child overrunning its parent passed reconciliation")
	}
	if _, problems := joinSpans(ok[:1]); len(problems) != 1 {
		t.Fatal("an SDK call without a handler span passed")
	}
}
