package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/report"
	"mineassess/perfbench/internal/span"
	"mineassess/pkg/api"
	"mineassess/pkg/client"
)

// workload is one traffic mix. Rates are fixed here, not derived from the
// machine, so every commit is measured under the same offered load.
type workload struct {
	name string
	// learners is the number of learner connections; sittingsPerSec the
	// open-loop arrival rate of sittings over the window; think the mean
	// exponential think time between a sitting's requests.
	learners       int
	sittingsPerSec float64
	think          time.Duration
	// watch adds one SSE watcher on the fixed exam's live stream.
	watch bool
	// class is the number of learners set-up drives through the fixed exam
	// (closed loop, as fast as the server answers) before the window.
	class int
	// reports switches the window to one teacher requesting reports back to
	// back (closed loop, one connection).
	reports bool
	// restart kills the server after the window and restarts it on the
	// same journal, checking every acknowledged adaptive sitting survived.
	restart bool
	// tailQ is the tail percentile reported for the workload's operation.
	tailQ float64
}

var workloads = map[string]*workload{
	"fixed-live": {
		name: "fixed-live", learners: 1, sittingsPerSec: 3.6, think: 50 * time.Millisecond,
		watch: true, tailQ: 0.99,
	},
	"adaptive-wal": {
		name: "adaptive-wal", learners: 2, sittingsPerSec: 13, think: 50 * time.Millisecond,
		restart: true, tailQ: 0.99,
	},
	"teacher-report": {
		name: "teacher-report", class: 250, reports: true, tailQ: 0.90,
	},
}

// memStatsPath is the pprof allocs profile in text form, whose trailer
// carries the server's runtime.MemStats.
const memStatsPath = "/debug/pprof/allocs?debug=1"

// The adaptive sitting every adaptive-wal learner takes.
var catConfig = api.AdaptiveConfig{MaxItems: 40, MinItems: 5, TargetSE: 0.2}

// checks counts failed correctness checks, keeping the first few reasons.
type checks struct {
	mu     sync.Mutex
	n      int
	first  []string
	passed int
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checks) pass() {
	c.mu.Lock()
	c.passed++
	c.mu.Unlock()
}

// pass is one server lifetime: set-up, the measured window, and for
// adaptive-wal the restart. A traced pass runs tracedserver and records spans.
type pass struct {
	w       *workload
	seed    int64
	seconds time.Duration
	bin     string
	dir     string
	procs   int
	rec     *span.Recorder // nil when untraced
	ids     atomic.Uint64
	hc      *http.Client
	bank    *authored
	srv     *proc
	srvDir  string // the set-up directory of srv: seed bank, journal, log

	setups []time.Duration
	// expectP is each fixed question's share of the set-up class that
	// answered it correctly (teacher-report).
	expectP map[string]float64

	// The window.
	start, end time.Time
	samples    []sample
	analyzeMs  []float64
	renderMs   []float64
	frames     *watcher
	sittings   []*catSitting
	checks     checks
	cpu        []cpuPoint // CPU readings every cpuInterval over the window
	wall       time.Duration
	// Heap bytes allocated over the window by the server (runtime.MemStats
	// through its pprof endpoint) and by this process, and server GC cycles.
	serverAlloc float64
	clientAlloc float64
	serverGCs   float64
	serverCPU   time.Duration
	genCPU      time.Duration
	rss         int64
	counters    scrape
	recovery    time.Duration
	spans       []span.Span
}

func newPass(w *workload, seed int64, seconds time.Duration, bin, dir string, traced bool) (*pass, error) {
	b, err := authorBank(seed)
	if err != nil {
		return nil, err
	}
	p := &pass{
		w: w, seed: seed, seconds: seconds, bin: bin, dir: dir,
		procs: runtime.NumCPU(), bank: b,
		hc: &http.Client{Timeout: requestTimeout},
	}
	if traced {
		p.rec = &span.Recorder{}
	}
	return p, nil
}

func (p *pass) conn() *conn { return newConn(p.srv.base, p.rec, &p.ids) }

// run sets up `setups` times (keeping the last server for the window),
// measures the window, and restarts the server when the workload asks.
func (p *pass) run(ctx context.Context, setups int) error {
	defer func() {
		if p.srv != nil {
			p.srv.kill()
		}
	}()
	for k := 0; k < setups; k++ {
		if p.srv != nil {
			p.srv.kill()
			p.srv = nil
		}
		d, err := p.setup(ctx, k)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", k+1, err)
		}
		p.setups = append(p.setups, d)
	}
	if err := p.window(ctx); err != nil {
		return err
	}
	if p.rec != nil {
		spans, err := p.fetchSpans(ctx)
		if err != nil {
			return err
		}
		p.spans = append(spans, p.rec.Spans()...)
	}
	if p.w.restart {
		return p.restart(ctx)
	}
	return nil
}

// setup is the timed part before the window: launch the server on a fresh
// journal, wait until it answers, author the bank over /v1, and (for
// teacher-report) drive the class through the fixed exam.
func (p *pass) setup(ctx context.Context, k int) (time.Duration, error) {
	dir := filepath.Join(p.dir, fmt.Sprintf("setup%d", k+1))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	seedBank := filepath.Join(dir, "seed.json")
	if err := writeSeedBank(seedBank); err != nil {
		return 0, err
	}
	start := time.Now()
	srv, err := launch(p.bin, seedBank, filepath.Join(dir, "journal"), p.procs)
	if err != nil {
		return 0, err
	}
	p.srv, p.srvDir = srv, dir
	if err := srv.ready(ctx, p.hc); err != nil {
		return 0, err
	}
	conns := make([]*conn, min(2, p.procs))
	for i := range conns {
		conns[i] = p.conn()
		defer conns[i].close()
	}
	if err := p.bank.upload(ctx, conns); err != nil {
		return 0, err
	}
	if p.w.class > 0 {
		if err := p.runClass(ctx, conns); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// runClass drives the set-up class through the fixed exam, closed loop, and
// records each question's share of correct answers.
func (p *pass) runClass(ctx context.Context, conns []*conn) error {
	rng := rand.New(rand.NewSource(p.seed + 1))
	answers := make([]map[string]string, p.w.class)
	correct := make(map[string]int, fixedQuestions)
	for i := range answers {
		theta := rng.NormFloat64()
		answers[i] = make(map[string]string, fixedQuestions)
		for _, pid := range p.bank.fixed {
			opt := p.bank.respond(rng, pid, theta)
			answers[i][pid] = opt
			if opt == p.bank.key[pid] {
				correct[pid]++
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(answers) && ctx.Err() == nil; i += len(conns) {
				s := &fixedSitting{p: p, cn: conns[c], student: fmt.Sprintf("class-%04d", i), seed: int64(i), answers: answers[i]}
				for step, more := 0, true; more; step++ {
					var err error
					if _, more, err = s.step(step); err != nil {
						errs[c] = fmt.Errorf("class learner %d: %w", i, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	p.expectP = make(map[string]float64, fixedQuestions)
	for _, pid := range p.bank.fixed {
		p.expectP[pid] = float64(correct[pid]) / float64(p.w.class)
	}
	return ctx.Err()
}

// window measures the workload's traffic: server CPU and peak RSS from
// /proc, the generator's own CPU, and /metrics counter deltas, all over the
// same interval.
func (p *pass) window(ctx context.Context) error {
	if p.w.watch {
		w, err := startWatcher(ctx, p.srv.base)
		if err != nil {
			return err
		}
		p.frames = w
		defer w.stop()
	}
	load := func() { p.reportLoop(ctx) }
	if !p.w.reports {
		load = p.planLearners(ctx)
	}
	before, err := fetchScrape(ctx, p.hc, p.srv.ops+"/metrics")
	if err != nil {
		return err
	}
	memBefore, err := fetchMemStats(ctx, p.hc, p.srv.ops+memStatsPath)
	if err != nil {
		return err
	}
	var clientMem runtime.MemStats
	runtime.ReadMemStats(&clientMem)
	clientAlloc := clientMem.TotalAlloc
	if err := resetHWM(p.srv.pid()); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	track, err := startTrack(p.srv.pid(), cpuInterval)
	if err != nil {
		return err
	}
	p.start = time.Now()
	load()
	p.end = time.Now()
	if p.cpu, err = track.stop(); err != nil {
		return err
	}
	first, last := p.cpu[0], p.cpu[len(p.cpu)-1]
	p.serverCPU, p.genCPU, p.wall = last.server-first.server, last.gen-first.gen, last.at.Sub(first.at)
	runtime.ReadMemStats(&clientMem)
	p.clientAlloc = float64(clientMem.TotalAlloc - clientAlloc)
	if p.rss, err = procHWM(p.srv.pid()); err != nil {
		return err
	}
	memAfter, err := fetchMemStats(ctx, p.hc, p.srv.ops+memStatsPath)
	if err != nil {
		return err
	}
	p.serverAlloc = memAfter["TotalAlloc"] - memBefore["TotalAlloc"]
	p.serverGCs = memAfter["NumGC"] - memBefore["NumGC"]
	after, err := fetchScrape(ctx, p.hc, p.srv.ops+"/metrics")
	if err != nil {
		return err
	}
	p.counters = delta(before, after)
	if !p.srv.alive() {
		return errServerDied
	}
	if p.frames != nil {
		p.frames.await(p.finishedSessions(), 5*time.Second)
	}
	return ctx.Err()
}

// planLearners plans every sitting of the window from the seed and returns
// the load: one open loop per learner connection, started when called.
// Planning happens before the window so its time and allocations stay out.
func (p *pass) planLearners(ctx context.Context) func() {
	rng := rand.New(rand.NewSource(p.seed + 2))
	n := int(math.Round(p.w.sittingsPerSec * p.seconds.Seconds()))
	arr := arrivals(rng, n, p.seconds)
	conns := make([]*conn, p.w.learners)
	perConn := make([][]*user, p.w.learners)
	for i := range conns {
		conns[i] = p.conn()
	}
	for i, at := range arr {
		c := i % len(conns)
		theta := rng.NormFloat64()
		u := &user{}
		if p.w.watch {
			s := &fixedSitting{p: p, cn: conns[c], student: fmt.Sprintf("live-%05d", i), seed: int64(i),
				answers: make(map[string]string, fixedQuestions), record: true}
			for _, pid := range p.bank.fixed {
				s.answers[pid] = p.bank.respond(rng, pid, theta)
			}
			p.frames.expect(s)
			u.dues, u.step = dueTimes(rng, at, fixedQuestions+2, p.w.think), s.step
		} else {
			s := &catSitting{p: p, cn: conns[c], student: fmt.Sprintf("cat-%05d", i), seed: int64(i),
				theta: theta, rng: rand.New(rand.NewSource(rng.Int63()))}
			p.sittings = append(p.sittings, s)
			u.dues, u.step = dueTimes(rng, at, catConfig.MaxItems+2, p.w.think), s.step
		}
		perConn[c] = append(perConn[c], u)
	}
	return func() {
		out := make([][]sample, len(conns))
		var wg sync.WaitGroup
		for c := range conns {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				defer conns[c].close()
				out[c] = openLoop(ctx, p.start, perConn[c])
			}(c)
		}
		wg.Wait()
		for _, s := range out {
			p.samples = append(p.samples, s...)
		}
	}
}

// fixedSitting is one learner's fixed-form sitting: start, one answer per
// question in presentation order, finish.
type fixedSitting struct {
	p       *pass
	cn      *conn
	student string
	seed    int64
	answers map[string]string
	record  bool // keep send times for live-frame delivery latency

	id       string
	order    []string
	sent     map[string]time.Time // "start", "finish" or a problem ID
	finished bool
}

func (s *fixedSitting) step(i int) (string, bool, error) {
	now := time.Now()
	if s.record && s.sent == nil {
		s.sent = make(map[string]time.Time, fixedQuestions+2)
	}
	switch {
	case i == 0:
		s.mark("start", now)
		err := s.cn.call("fixed.start", func(sdk *client.Client) error {
			r, err := sdk.StartSession(fixedExamID, s.student, s.seed)
			if err == nil {
				s.id, s.order = r.SessionID, r.Order
			}
			return err
		})
		if err == nil && len(s.order) != fixedQuestions {
			err = fmt.Errorf("session %s presents %d questions, want %d", s.id, len(s.order), fixedQuestions)
		}
		return "fixed.start", true, err
	case i <= len(s.order):
		pid := s.order[i-1]
		s.mark(pid, now)
		err := s.cn.call("fixed.answer", func(sdk *client.Client) error { return sdk.Answer(s.id, pid, s.answers[pid]) })
		return "fixed.answer", true, err
	default:
		s.mark("finish", now)
		var res *analysis.StudentResult
		err := s.cn.call("fixed.finish", func(sdk *client.Client) (err error) {
			res, err = sdk.Finish(s.id)
			return err
		})
		if err == nil {
			s.finished = true
			s.checkScore(res)
		}
		return "fixed.finish", false, err
	}
}

func (s *fixedSitting) mark(what string, t time.Time) {
	if s.sent != nil {
		s.sent[what] = t
	}
}

// checkScore compares the graded score with the score of the responses sent
// under the authored key.
func (s *fixedSitting) checkScore(res *analysis.StudentResult) {
	want := 0.0
	for _, pid := range s.order {
		if s.answers[pid] == s.p.bank.key[pid] {
			want++
		}
	}
	got := res.Score(nil)
	if len(res.Responses) != len(s.order) || got != want {
		s.p.checks.fail("session %s scored %v over %d responses, want %v over %d", s.id, got, len(res.Responses), want, len(s.order))
		return
	}
	s.p.checks.pass()
}

// catSitting is one learner's adaptive sitting: start, respond until a
// stopping rule fires, finish.
type catSitting struct {
	p       *pass
	cn      *conn
	student string
	seed    int64
	theta   float64
	rng     *rand.Rand

	id       string
	next     *api.AdaptiveItem
	acked    int // responds the server acknowledged
	done     bool
	finished bool
}

func (s *catSitting) step(i int) (string, bool, error) {
	switch {
	case i == 0:
		err := s.cn.call("cat.start", func(sdk *client.Client) error {
			r, err := sdk.StartAdaptiveSession(api.StartAdaptiveSessionRequest{
				ExamID: poolExamID, StudentID: s.student, Seed: s.seed, AdaptiveConfig: catConfig,
			})
			if err == nil {
				s.id, s.next = r.SessionID, r.Next
			}
			return err
		})
		if err == nil && s.next == nil {
			err = fmt.Errorf("adaptive session %s started without an item", s.id)
		}
		return "cat.start", true, err
	case !s.done:
		pid := s.next.ProblemID
		var pr *api.AdaptiveProgress
		err := s.cn.call("cat.respond", func(sdk *client.Client) (err error) {
			pr, err = sdk.AdaptiveRespond(s.id, pid, s.p.bank.respond(s.rng, pid, s.theta))
			return err
		})
		if err != nil {
			return "cat.respond", false, err
		}
		s.acked++
		s.done, s.next = pr.Done, pr.Next
		if !s.done && s.next == nil {
			return "cat.respond", false, fmt.Errorf("adaptive session %s continues without an item", s.id)
		}
		return "cat.respond", true, nil
	default:
		var out *api.AdaptiveOutcome
		err := s.cn.call("cat.finish", func(sdk *client.Client) (err error) {
			out, err = sdk.FinishAdaptiveSession(s.id)
			return err
		})
		if err == nil {
			s.finished = true
			s.check(out)
		}
		return "cat.finish", false, err
	}
}

// check requires the sitting to have stopped by a stopping rule within
// MaxItems, with a finite ability estimate over the items it answered.
func (s *catSitting) check(out *api.AdaptiveOutcome) {
	switch {
	case out.StopReason != catdelivery.StopSETarget && out.StopReason != catdelivery.StopMaxItems:
		s.p.checks.fail("adaptive session %s stopped by %q", s.id, out.StopReason)
	case len(out.Administered) != s.acked || s.acked > catConfig.MaxItems:
		s.p.checks.fail("adaptive session %s administered %d items, %d acknowledged (max %d)", s.id, len(out.Administered), s.acked, catConfig.MaxItems)
	case math.IsNaN(out.Theta) || math.IsInf(out.Theta, 0) || math.IsNaN(out.SE):
		s.p.checks.fail("adaptive session %s ended with theta %v se %v", s.id, out.Theta, out.SE)
	default:
		s.p.checks.pass()
	}
}

// reportLoop is the teacher: back-to-back reports, each an export of the
// fixed exam's results, the analysis, and the renderers `assessctl
// analyze-file` prints.
func (p *pass) reportLoop(ctx context.Context) {
	cn := p.conn()
	defer cn.close()
	for time.Since(p.start) < p.seconds && ctx.Err() == nil {
		s := sample{route: "results.export", due: time.Now()}
		s.sent = s.due
		var res *analysis.ExamResult
		s.err = cn.call("results.export", func(sdk *client.Client) (err error) {
			res, err = sdk.Results(fixedExamID)
			return err
		})
		if s.err == nil {
			t1 := time.Now()
			a, err := analysis.Analyze(res, analysis.Options{GroupFraction: analysis.DefaultGroupFraction})
			t2 := time.Now()
			if err != nil {
				s.err = err
			} else {
				text := report.NumberTable(a) + "\n" + report.SignalBoard(a) + report.TimeSufficiency(analysis.AnalyzeTime(res))
				t3 := time.Now()
				p.analyzeMs = append(p.analyzeMs, ms(t2.Sub(t1)))
				p.renderMs = append(p.renderMs, ms(t3.Sub(t2)))
				p.checkReport(res, a, text)
			}
		}
		s.done = time.Now()
		p.samples = append(p.samples, s)
	}
}

// checkReport requires the export to hold the whole class, every student
// with a response per question, and each question's whole-class difficulty
// to equal the share of the class the generator answered correctly.
func (p *pass) checkReport(res *analysis.ExamResult, a *analysis.ExamAnalysis, text string) {
	if len(res.Students) != p.w.class || len(res.Problems) != fixedQuestions {
		p.checks.fail("export holds %d students x %d questions, want %d x %d", len(res.Students), len(res.Problems), p.w.class, fixedQuestions)
		return
	}
	for _, st := range res.Students {
		if len(st.Responses) != fixedQuestions {
			p.checks.fail("student %s has %d responses, want %d", st.StudentID, len(st.Responses), fixedQuestions)
			return
		}
	}
	if len(a.Questions) != fixedQuestions || text == "" {
		p.checks.fail("analysis covers %d questions, want %d", len(a.Questions), fixedQuestions)
		return
	}
	for _, q := range a.Questions {
		if want := p.expectP[q.ProblemID]; math.Abs(q.OverallP-want) > 1e-9 {
			p.checks.fail("question %s OverallP %v, want %v", q.ProblemID, q.OverallP, want)
			return
		}
	}
	p.checks.pass()
}

// finishedSessions lists the fixed sittings whose finish was acknowledged.
func (p *pass) finishedSessions() []string {
	if p.frames == nil {
		return nil
	}
	var ids []string
	for _, s := range p.frames.sittings {
		if s.finished {
			ids = append(ids, s.id)
		}
	}
	return ids
}

// restart kills the server (SIGKILL, no shutdown compaction), restarts it
// on the same journal and checks every acknowledged adaptive sitting came
// back with its administered-item count. The restart time is recovery.
func (p *pass) restart(ctx context.Context) error {
	p.srv.kill()
	p.srv = nil
	start := time.Now()
	srv, err := launch(p.bin, filepath.Join(p.srvDir, "seed.json"), filepath.Join(p.srvDir, "journal"), p.procs)
	if err != nil {
		return err
	}
	p.srv = srv
	if err := srv.ready(ctx, p.hc); err != nil {
		return err
	}
	p.recovery = time.Since(start)
	cn := newConn(srv.base, nil, nil)
	defer cn.close()
	for _, s := range p.sittings {
		if s.id == "" {
			continue // never acknowledged
		}
		st, err := cn.sdk.AdaptiveStatus(s.id)
		switch {
		case err != nil:
			p.checks.fail("adaptive session %s lost on restart: %v", s.id, err)
		case st.Administered != s.acked:
			p.checks.fail("adaptive session %s restored with %d administered, %d acknowledged", s.id, st.Administered, s.acked)
		case s.finished && st.State != bank.AdaptiveStateFinished:
			p.checks.fail("adaptive session %s restored as %q after an acknowledged finish", s.id, st.State)
		default:
			p.checks.pass()
		}
	}
	return ctx.Err()
}

func (p *pass) fetchSpans(ctx context.Context) ([]span.Span, error) {
	var out []span.Span
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.srv.ops+"/spans", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetch server spans: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch server spans: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("fetch server spans: %w", err)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
