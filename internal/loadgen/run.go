// Package loadgen is the composed-system load harness: it drives the full
// /v1 HTTP stack — request edge, delivery engines, group-commit WAL, event
// bus, SSE — with IRT-simulated learner cohorts arriving on an open-loop
// Poisson schedule, and reports per-route latency quantiles, error rates
// and a capacity summary (the highest sustained arrival rate that meets a
// p99 SLO).
//
// Open-loop means virtual learners arrive when the schedule says they
// arrive, regardless of how slowly the server is answering. A closed-loop
// driver (a fixed worker pool issuing the next request only after the
// previous one returns) silently sheds offered load exactly when the
// server degrades, which hides the latency the real population would have
// seen — the coordinated-omission trap. Here the arrival process never
// waits on the system under test: a stalled server produces more
// in-flight learners and honest tail latencies, not a quietly shrunken
// request rate.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mineassess/internal/obs"
	"mineassess/internal/simulate"
	"mineassess/pkg/api"
	"mineassess/pkg/client"
)

// Mix is the workload composition: relative weights for fixed-form
// sittings, adaptive (CAT) sittings, and SSE watchers on the fixed exam's
// live stream. Weights need not sum to 1; they are normalized. All-zero
// weights default to fixed-form only.
type Mix struct {
	Fixed float64 `json:"fixed"`
	CAT   float64 `json:"cat"`
	Watch float64 `json:"watch"`
}

// Learner classes (map keys in Result.Classes and Mix pick outcomes).
const (
	ClassFixed = "fixed"
	ClassCAT   = "cat"
	ClassWatch = "watch"
)

// normalized returns the mix with weights scaled to sum to 1.
func (m Mix) normalized() (Mix, error) {
	if m.Fixed < 0 || m.CAT < 0 || m.Watch < 0 {
		return m, fmt.Errorf("loadgen: mix weights must be non-negative, got %+v", m)
	}
	total := m.Fixed + m.CAT + m.Watch
	if total == 0 {
		return Mix{Fixed: 1}, nil
	}
	return Mix{Fixed: m.Fixed / total, CAT: m.CAT / total, Watch: m.Watch / total}, nil
}

// pick draws a class according to the (normalized) weights.
func (m Mix) pick(rng *rand.Rand) string {
	draw := rng.Float64()
	switch {
	case draw < m.Fixed:
		return ClassFixed
	case draw < m.Fixed+m.CAT:
		return ClassCAT
	default:
		return ClassWatch
	}
}

// Config describes one load run.
type Config struct {
	// BaseURL is the server under test (in-process httptest URL or a remote
	// -addr target).
	BaseURL string
	// Bank shapes the seeded exams; zero values take harness defaults.
	Bank BankConfig
	// Mix is the workload composition.
	Mix Mix
	// RatePerSec is the target arrival rate (virtual learners/second); Ramp
	// and Soak are the phase durations (Ramp may be 0 for soak-only).
	RatePerSec float64
	Ramp       time.Duration
	Soak       time.Duration
	// Seed fixes the arrival schedule, the class draws and every learner's
	// ability and response draws. Abilities are standard normal, N(0,1).
	Seed int64
	// TargetSE and MaxItems bound adaptive sittings (defaults 0.4 and 12).
	TargetSE float64
	MaxItems int
	// WatchDuration is how long an SSE watcher stays subscribed (default 2s).
	WatchDuration time.Duration
	// Think is the mean think time between a learner's answers, drawn
	// exponentially per answer; 0 answers back-to-back (capacity mode).
	Think time.Duration
	// SLO is the p99 latency objective requests are judged against in the
	// closing summary (default 250ms).
	SLO time.Duration
	// TransportConns sizes the shared tuned transport's connection pool;
	// default 1024.
	TransportConns int
}

// requestTimeout bounds each request of the shared client. A timed-out
// request is recorded as a transport error.
const requestTimeout = 30 * time.Second

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.TargetSE <= 0 {
		c.TargetSE = 0.4
	}
	if c.MaxItems <= 0 {
		c.MaxItems = 12
	}
	if c.WatchDuration <= 0 {
		c.WatchDuration = 2 * time.Second
	}
	if c.SLO <= 0 {
		c.SLO = 250 * time.Millisecond
	}
	if c.TransportConns <= 0 {
		c.TransportConns = 1024
	}
	return c
}

// ClassCounts tallies one learner class's outcomes. A sitting completes
// when every operation of its script succeeded; any failed operation marks
// the learner failed (the per-route error detail lives in Routes).
type ClassCounts struct {
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
}

// Result is one run's full measurement.
type Result struct {
	// Offered is the number of virtual learners the schedule fired;
	// OfferedPerSec relates it to the planned duration. Under open-loop
	// arrivals these are properties of the schedule, not the server.
	Offered        int     `json:"offered"`
	OfferedPerSec  float64 `json:"offeredPerSec"`
	PlannedSeconds float64 `json:"plannedSeconds"`
	ActualSeconds  float64 `json:"actualSeconds"`
	// Lateness is how far behind schedule arrivals fired — the generator's
	// own health. A loaded generator reports lateness instead of silently
	// thinning the offered load.
	Lateness obs.LatencySummary `json:"lateness"`
	// Classes and Routes carry the per-class outcomes and per-route
	// latency/error digests.
	Classes map[string]*ClassCounts `json:"classes"`
	Routes  []RouteSummary          `json:"routes"`
	// Watcher stream accounting.
	Frames      int64 `json:"frames"`
	StatsFrames int64 `json:"statsFrames"`
	Gaps        int64 `json:"gaps"`
	// Errors is the total failed operations; RequestP99Ms the merged
	// request-route p99 judged against SLOMs.
	Errors       int64   `json:"errors"`
	RequestCount int64   `json:"requestCount"`
	RequestP99Ms float64 `json:"requestP99Ms"`
	SLOMs        float64 `json:"sloMs"`
	SLOMet       bool    `json:"sloMet"`
	// Interrupted reports a context cancellation cutting the schedule short.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Runner drives one target server. Build with NewRunner (which seeds the
// bank over the API), then Run as many schedules as needed.
type Runner struct {
	cfg    Config
	httpc  *http.Client
	seeded *SeededBank
}

// NewRunner validates the config, builds the shared tuned HTTP client and
// seeds the target's bank through /v1.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if _, err := cfg.Mix.normalized(); err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg, httpc: &http.Client{
		Transport: client.TunedTransport(cfg.TransportConns),
		Timeout:   requestTimeout,
	}}
	seeded, err := EnsureBank(r.client("loadgen-seeder"), cfg.Bank)
	if err != nil {
		return nil, err
	}
	r.seeded = seeded
	return r, nil
}

// client builds a per-learner SDK client over the shared transport.
func (r *Runner) client(learnerID string) *client.Client {
	return client.New(r.cfg.BaseURL,
		client.WithHTTPClient(r.httpc),
		client.WithLearnerID(learnerID))
}

// Run fires the configured ramp+soak schedule and blocks until every
// spawned learner finished, then digests the measurements.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	sched := RampSoak(r.cfg.RatePerSec, r.cfg.Ramp, r.cfg.Soak, r.cfg.Seed)
	return r.runSchedule(ctx, sched)
}

// runSchedule executes one explicit schedule (Run and the capacity ladder
// share it).
func (r *Runner) runSchedule(ctx context.Context, sched Schedule) (*Result, error) {
	mix, err := r.cfg.Mix.normalized()
	if err != nil {
		return nil, err
	}
	cohort, err := simulate.NewStream(simulate.PopulationConfig{
		SD:   1,
		Seed: r.cfg.Seed + 1, IDPrefix: "vl",
	})
	if err != nil {
		return nil, err
	}

	col := NewCollector()
	lateness := &obs.Histogram{}
	classes := map[string]*ClassCounts{
		ClassFixed: {}, ClassCAT: {}, ClassWatch: {},
	}
	classRng := rand.New(rand.NewSource(r.cfg.Seed + 2))

	var wg sync.WaitGroup
	start := time.Now()
	fired, runErr := sched.Run(ctx, func(i int, late time.Duration) {
		lateness.Observe(late)
		class := mix.pick(classRng)
		st := cohort.Next()
		seed := r.cfg.Seed + 1000 + int64(i)
		counts := classes[class]
		atomic.AddInt64(&counts.Started, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ok bool
			switch class {
			case ClassFixed:
				ok = r.fixedSitting(ctx, col, st, seed)
			case ClassCAT:
				ok = r.catSitting(ctx, col, st, seed)
			case ClassWatch:
				ok = r.watcher(ctx, col, st)
			}
			if ok {
				atomic.AddInt64(&counts.Completed, 1)
			} else {
				atomic.AddInt64(&counts.Failed, 1)
			}
		}()
	})
	wg.Wait()
	actual := time.Since(start)

	interrupted := false
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
			interrupted = true
		} else {
			return nil, runErr
		}
	}

	planned := sched.Duration()
	res := &Result{
		Offered:        fired,
		OfferedPerSec:  float64(fired) / planned.Seconds(),
		PlannedSeconds: planned.Seconds(),
		ActualSeconds:  actual.Seconds(),
		Lateness:       lateness.Summary(),
		Classes:        classes,
		Routes:         col.Routes(),
		Errors:         col.TotalErrors(),
		SLOMs:          obs.Ms(r.cfg.SLO),
		Interrupted:    interrupted,
	}
	res.Frames, res.StatsFrames, res.Gaps = col.StreamCounts()
	res.RequestCount, res.RequestP99Ms = col.RequestQuantile(0.99)
	res.SLOMet = res.Errors == 0 && res.RequestP99Ms <= res.SLOMs
	return res, nil
}

// op times one client operation into the collector; it returns false on
// failure so scripts can stop a broken sitting early.
func op(col *Collector, route string, call func() error) bool {
	t0 := time.Now()
	err := call()
	if err != nil {
		col.Error(route, err)
		return false
	}
	col.Observe(route, time.Since(t0))
	return true
}

// think sleeps one exponentially-jittered think time (mean cfg.Think),
// bounded by ctx.
func (r *Runner) think(ctx context.Context, rng *rand.Rand) {
	if r.cfg.Think <= 0 {
		return
	}
	d := time.Duration(rng.ExpFloat64() * float64(r.cfg.Think))
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}

// fixedSitting drives one learner through the whole fixed-form lifecycle:
// start, answer every item in presentation order (correctness drawn from
// the learner's ability under the item's 3PL parameters), finish.
func (r *Runner) fixedSitting(ctx context.Context, col *Collector, st simulate.Student, seed int64) bool {
	c := r.client(st.ID)
	rng := rand.New(rand.NewSource(seed))
	var sess *api.StartSessionResponse
	if !op(col, RouteFixedStart, func() (err error) {
		sess, err = c.StartSession(r.seeded.FixedExamID, st.ID, seed)
		return err
	}) {
		return false
	}
	for _, pid := range sess.Order {
		r.think(ctx, rng)
		response := "B"
		if rng.Float64() < r.seeded.FixedParams[pid].ProbCorrect(st.Ability) {
			response = "A"
		}
		if !op(col, RouteFixedAnswer, func() error {
			return c.Answer(sess.SessionID, pid, response)
		}) {
			return false
		}
	}
	return op(col, RouteFixedFinish, func() (err error) {
		_, err = c.Finish(sess.SessionID)
		return err
	})
}

// catSitting drives one learner through a live adaptive session: start,
// respond to each served item until the engine stops the test, then fetch
// the outcome.
func (r *Runner) catSitting(ctx context.Context, col *Collector, st simulate.Student, seed int64) bool {
	c := r.client(st.ID)
	rng := rand.New(rand.NewSource(seed))
	var started *api.StartAdaptiveSessionResponse
	if !op(col, RouteCATStart, func() (err error) {
		started, err = c.StartAdaptiveSession(api.StartAdaptiveSessionRequest{
			ExamID: r.seeded.CATExamID, StudentID: st.ID, Seed: seed,
			AdaptiveConfig: api.AdaptiveConfig{
				TargetSE: r.cfg.TargetSE, MaxItems: r.cfg.MaxItems,
			},
		})
		return err
	}) {
		return false
	}
	next := started.Next
	for next != nil {
		r.think(ctx, rng)
		response := "B"
		if rng.Float64() < r.seeded.CATParams[next.ProblemID].ProbCorrect(st.Ability) {
			response = "A"
		}
		var prog *api.AdaptiveProgress
		if !op(col, RouteCATRespond, func() (err error) {
			prog, err = c.AdaptiveRespond(started.SessionID, next.ProblemID, response)
			return err
		}) {
			return false
		}
		if prog.Done {
			break
		}
		next = prog.Next
	}
	return op(col, RouteCATFinish, func() (err error) {
		_, err = c.FinishAdaptiveSession(started.SessionID)
		return err
	})
}

// watcher subscribes to the fixed exam's live SSE stream for
// cfg.WatchDuration, counting event frames, interleaved stats frames and
// stream.gap markers. The connect (through response headers) is the timed
// operation; a stream that dies before the watch window ends is a failure.
func (r *Runner) watcher(ctx context.Context, col *Collector, st simulate.Student) bool {
	c := r.client(st.ID)
	wctx, cancel := context.WithTimeout(ctx, r.cfg.WatchDuration)
	defer cancel()
	var stream *client.EventStream
	if !op(col, RouteWatchOpen, func() (err error) {
		stream, err = c.StreamExamLive(wctx, r.seeded.FixedExamID, "")
		return err
	}) {
		return false
	}
	defer stream.Close()
	for {
		f, err := stream.Next()
		if err != nil {
			// The watch window closing is the normal end; anything else —
			// including the server hanging up mid-window — is a failure.
			if wctx.Err() != nil {
				return true
			}
			if errors.Is(err, io.EOF) {
				col.Error(RouteWatchOpen, fmt.Errorf("loadgen: stream closed early: %w", err))
				return false
			}
			col.Error(RouteWatchOpen, err)
			return false
		}
		switch {
		case f.IsGap():
			col.Gap()
		case f.IsStats():
			col.StatsFrame()
		default:
			col.Frame()
		}
	}
}
