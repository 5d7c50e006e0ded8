package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"mineassess/perfbench/internal/span"
)

// e2e holds one pass's end-to-end figures. The operation is what the
// workload's user waits for: a learner request (start, answer/respond or
// finish) timed from its due time, or a whole teacher report (export,
// analysis, rendering). Every figure is printed each run. The result line of
// an untraced run carries the ones that hold still on a shared host: set-up
// time, the heap the server and the client allocate per operation, and the
// server's peak memory. Latency and CPU time swing with the neighbours'
// load (see README.md) and travel with the per-layer metrics instead.
type e2e struct {
	setupS      float64
	op          tail    // latency, ms
	serverCPU   float64 // ms per completed operation
	clientCPU   float64 // ms per completed operation
	serverAlloc float64 // KB per completed operation
	clientAlloc float64 // KB per completed operation
	rssMB       float64
}

func (p *pass) endToEnd() e2e {
	lat := make([]float64, 0, len(p.samples))
	done := 0
	for _, s := range p.samples {
		if s.err != nil {
			// A failed request misses any latency limit.
			lat = append(lat, ms(requestTimeout))
			continue
		}
		lat = append(lat, ms(s.latency()))
		done++
	}
	return e2e{
		setupS:      percentile(durationsS(p.setups), 0.5),
		op:          summarize(lat, p.w.tailQ),
		serverCPU:   p.cpuPerOp(func(c cpuPoint) time.Duration { return c.server }),
		clientCPU:   p.cpuPerOp(func(c cpuPoint) time.Duration { return c.gen }),
		serverAlloc: ratio(p.serverAlloc/1024, float64(done)),
		clientAlloc: ratio(p.clientAlloc/1024, float64(done)),
		rssMB:       float64(p.rss) / (1 << 20),
	}
}

// cpuInterval is how often the window reads CPU time, and minIntervalOps
// the completions an interval needs to count (the ramp-down after the last
// arrival completes fewer). Host contention inflates CPU time in bursts, so
// per-operation CPU is the median over intervals. Two seconds holds enough
// 10 ms ticks to keep rounding near 5% per interval.
const (
	cpuInterval    = 2 * time.Second
	minIntervalOps = 100
)

// cpuPerOp is CPU milliseconds per completed operation: the median over
// intervals when at least three hold minIntervalOps completions, otherwise
// (teacher reports, a few per second) the whole window's total.
func (p *pass) cpuPerOp(of func(cpuPoint) time.Duration) float64 {
	var done []time.Time
	for _, s := range p.samples {
		if s.err == nil {
			done = append(done, s.done)
		}
	}
	if len(p.cpu) < 2 {
		return 0
	}
	var per []float64
	for i := 1; i < len(p.cpu); i++ {
		a, b := p.cpu[i-1], p.cpu[i]
		n := 0
		for _, t := range done {
			if t.After(a.at) && !t.After(b.at) {
				n++
			}
		}
		if n >= minIntervalOps {
			per = append(per, ms(of(b)-of(a))/float64(n))
		}
	}
	if len(per) >= 3 {
		return percentile(per, 0.5)
	}
	return ratio(ms(of(p.cpu[len(p.cpu)-1])-of(p.cpu[0])), float64(len(done)))
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// print shows the figures under the names of the workload's own operation
// (req_* for learner requests, report_* for teacher reports).
func (e e2e) print(w *workload, prefix string) {
	op, unit, scale := "req", "us", 1000.0
	if w.reports {
		op, unit, scale = "report", "ms", 1
	}
	fmt.Printf("%ssetup_s %.4f s | %s_p50_ms %.4f ms | %s_p%d_ms %.4f ms (n=%d, %d beyond) | server_rss_mb %.2f MB\n",
		prefix, e.setupS, op, e.op.P50, op, int(math.Round(100*e.op.Q)), e.op.Tail, e.op.N, beyond(e.op.N, e.op.Q), e.rssMB)
	fmt.Printf("%sserver_cpu_%s_per_%s %.3f %s | client_cpu_%s_per_%s %.3f %s | server_alloc_kb_per_op %.2f KB | client_alloc_kb_per_op %.2f KB\n",
		prefix, unit, op, scale*e.serverCPU, unit, unit, op, scale*e.clientCPU, unit, e.serverAlloc, e.clientAlloc)
	if !e.op.Enough {
		fmt.Printf("%swarning: fewer than %d samples beyond the tail percentile\n", prefix, minBeyond)
	}
}

func (e e2e) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":                {e.setupS, "s"},
		"server_alloc_kb_per_op": {e.serverAlloc, "KB"},
		"client_alloc_kb_per_op": {e.clientAlloc, "KB"},
		"server_rss_mb":          {e.rssMB, "MB"},
	}
}

// health describes the generator over the window.
type health struct {
	genCPU       float64 // cores
	timerLateP99 float64 // ms past due for requests the connection was free to send
	limited      bool
}

// limitLateMs and limitCPU flag a run where the generator limited the load:
// its timers let requests go late (a descheduled generator), or it used most
// of its cores.
const (
	limitLateMs = 2.0
	limitCPU    = 0.8
)

func (p *pass) health() health {
	var late []float64
	for _, s := range p.samples {
		if s.slept {
			late = append(late, ms(s.lateness()))
		}
	}
	h := health{genCPU: ratio(p.genCPU.Seconds(), p.wall.Seconds())}
	if len(late) > 0 {
		h.timerLateP99 = percentile(late, 0.99)
	}
	h.limited = h.timerLateP99 > limitLateMs || h.genCPU > limitCPU*float64(runtime.GOMAXPROCS(0))
	return h
}

// outcome counts the window's operations and failures and lists what broke:
// failed requests, failed correctness checks, live frames missed or behind a
// gap, and a server request count that disagrees with the generator's.
func (p *pass) outcome() (attempted, failed int, problems []string) {
	answered := 0
	for _, s := range p.samples {
		if s.err != nil {
			failed++
			if failed <= 3 {
				problems = append(problems, fmt.Sprintf("%s request: %v", s.route, s.err))
			}
		}
		if s.answered() {
			answered++
		}
	}
	attempted = len(p.samples)
	if attempted == 0 {
		problems = append(problems, "no operation in the window")
	}
	failed += p.checks.n
	problems = append(problems, p.checks.first...)
	if p.frames != nil {
		missing := p.frames.missing(p.finishedSessions())
		failed += len(missing) + p.frames.gaps
		if len(missing) > 0 {
			problems = append(problems, fmt.Sprintf("live stream missed %d session.finished frames", len(missing)))
		}
		if p.frames.gaps > 0 {
			problems = append(problems, fmt.Sprintf("live stream reported %d stream.gap frames", p.frames.gaps))
		}
	}
	if got := p.counters.sum("http_request_seconds_count"); got != float64(answered) {
		problems = append(problems, fmt.Sprintf("server counted %.0f requests in the window, generator %d", got, answered))
	}
	return attempted, failed, problems
}

// Routes the traced run breaks down, by SDK call name.
var tracedRoutes = []string{
	"fixed.start", "fixed.answer", "fixed.finish",
	"cat.start", "cat.respond", "cat.finish",
	"results.export", "problems.create",
}

// spanTolerance is how far a child span may overrun its parent before the
// trace fails reconciliation: the two processes read the same wall clock,
// so any overrun is scheduling noise between reading the clock and the
// event it marks.
const (
	spanTolerance = 200 * time.Microsecond
	sumTolerance  = 0.01 // self times must add up to the SDK spans within 1%
)

// request is one SDK call joined with the server spans of its request ID.
type request struct {
	route   string
	sdk     span.Span
	handler *span.Span
	bank    []span.Span
}

// Self times, by the rule self = span minus the part its children cover.
func (r *request) residual() time.Duration {
	return r.sdk.Dur() - time.Duration(overlap(*r.handler, r.sdk))
}

func (r *request) layerSelf() time.Duration {
	covered := int64(0)
	for _, b := range r.bank {
		covered += overlap(b, *r.handler)
	}
	return r.handler.Dur() - time.Duration(covered)
}

func (r *request) bankTime() time.Duration {
	var t time.Duration
	for _, b := range r.bank {
		t += b.Dur()
	}
	return t
}

func overlap(a, b span.Span) int64 {
	return max(0, min(a.End, b.End)-max(a.Start, b.Start))
}

func within(child, parent span.Span) bool {
	tol := int64(spanTolerance)
	return child.Start >= parent.Start-tol && child.End <= parent.End+tol
}

// joinSpans pairs every SDK span with its server spans.
func joinSpans(spans []span.Span) ([]*request, []string) {
	handlers := map[string]*span.Span{}
	bank := map[string][]span.Span{}
	var reqs []*request
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == "handler":
			handlers[s.ReqID] = s
		case strings.HasPrefix(s.Name, "bank."):
			bank[s.ReqID] = append(bank[s.ReqID], *s)
		case strings.HasPrefix(s.Name, "sdk."):
			reqs = append(reqs, &request{route: strings.TrimPrefix(s.Name, "sdk."), sdk: *s})
		}
	}
	var problems []string
	var out []*request
	for _, r := range reqs {
		r.handler = handlers[r.sdk.ReqID]
		r.bank = bank[r.sdk.ReqID]
		if r.handler == nil {
			if len(problems) < 3 {
				problems = append(problems, fmt.Sprintf("%s request %s has no handler span", r.route, r.sdk.ReqID))
			}
			continue
		}
		out = append(out, r)
	}
	return out, problems
}

// reconcile checks SDK span >= handler span >= bank children for each
// route, and that the self times add up to the SDK spans.
func reconcile(reqs []*request) []string {
	var problems []string
	type sums struct{ sdk, self time.Duration }
	byRoute := map[string]*sums{}
	for _, r := range reqs {
		ok := within(*r.handler, r.sdk)
		for _, b := range r.bank {
			ok = ok && within(b, *r.handler)
		}
		if !ok && len(problems) < 3 {
			problems = append(problems, fmt.Sprintf("%s request %s: spans not nested (sdk >= handler >= bank)", r.route, r.sdk.ReqID))
		}
		s := byRoute[r.route]
		if s == nil {
			s = &sums{}
			byRoute[r.route] = s
		}
		s.sdk += r.sdk.Dur()
		s.self += r.residual() + r.layerSelf() + r.bankTime()
	}
	for route, s := range byRoute {
		if off := math.Abs(float64(s.self-s.sdk)) / float64(s.sdk); off > sumTolerance {
			problems = append(problems, fmt.Sprintf("%s: self times sum to %s, SDK spans to %s", route, s.self, s.sdk))
		}
	}
	return problems
}

// perLayer computes the per-layer metrics: span breakdowns from the traced
// pass, counter deltas, live-stream figures, restart time and generator
// health from the untraced pass.
func perLayer(plain, traced *pass) (map[string]metric, []string) {
	reqs, problems := joinSpans(traced.spans)
	problems = append(problems, reconcile(reqs)...)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	handler := map[string][]float64{}
	var residual, deliverySelf, catSelf, exportSelf, exportResidual, reads, commits []float64
	windowReqs := 0
	for _, r := range reqs {
		for _, b := range r.bank {
			if b.Name == "bank.write" {
				commits = append(commits, ms(b.Dur()))
			}
		}
		inWindow := r.sdk.Start >= traced.start.UnixNano() && r.sdk.Start <= traced.end.UnixNano()
		if r.route == "problems.create" {
			handler[r.route] = append(handler[r.route], us(r.handler.Dur()))
		}
		if !inWindow {
			continue
		}
		windowReqs++
		handler[r.route] = append(handler[r.route], us(r.handler.Dur()))
		for _, b := range r.bank {
			if b.Name == "bank.read" {
				reads = append(reads, us(b.Dur()))
			}
		}
		switch {
		case r.route == "results.export":
			exportSelf = append(exportSelf, ms(r.layerSelf()))
			exportResidual = append(exportResidual, ms(r.residual()))
		case strings.HasPrefix(r.route, "fixed."):
			residual = append(residual, us(r.residual()))
			deliverySelf = append(deliverySelf, us(r.layerSelf()))
		case strings.HasPrefix(r.route, "cat."):
			residual = append(residual, us(r.residual()))
			catSelf = append(catSelf, us(r.layerSelf()))
		}
	}
	m := map[string]metric{
		"client.residual_us_per_req":  {mean(residual), "us"},
		"delivery.self_us_per_req":    {mean(deliverySelf), "us"},
		"delivery.export_self_ms":     {mean(exportSelf), "ms"},
		"catdelivery.self_us_per_req": {mean(catSelf), "us"},
		"bank.read_us_per_call":       {mean(reads), "us"},
		"bank.read_calls_per_req":     {ratio(float64(len(reads)), float64(windowReqs)), "count"},
		"bank.commit_p50_ms":          {pctOrZero(commits, 0.5), "ms"},
		"bank.commit_p99_ms":          {pctOrZero(commits, 0.99), "ms"},
		"client.results_decode_ms":    {mean(exportResidual), "ms"},
		"analysis.analyze_ms":         {mean(traced.analyzeMs), "ms"},
		"report.render_ms":            {mean(traced.renderMs), "ms"},
	}
	for _, route := range tracedRoutes {
		m["httpapi.handler_us."+route] = metric{mean(handler[route]), "us"}
	}

	c := plain.counters
	records := c.sum("journal_batch_records_sum")
	m["bank.wal_records"] = metric{records, "count"}
	m["bank.fsyncs"] = metric{c.sum("journal_fsync_total"), "count"}
	m["bank.batch_records_mean"] = metric{ratio(records, c.sum("journal_batch_records_count")), "count"}
	m["bank.wal_bytes_per_record"] = metric{ratio(c.sum("journal_wal_bytes_total"), records), "B"}
	m["bank.compactions"] = metric{c.sum("journal_compactions_total"), "count"}
	m["bank.compact_ms"] = metric{1000 * ratio(c.sum("journal_compact_seconds_sum"), c.sum("journal_compact_seconds_count")), "ms"}
	m["bank.recovery_s"] = metric{plain.recovery.Seconds(), "s"}
	m["events.published"] = metric{c.sum("events_published_total"), "count"}
	m["events.dropped"] = metric{c.sum("events_dropped_total"), "count"}
	m["livestats.fold_us"] = metric{1e6 * ratio(c.sum("livestats_fold_seconds_sum"), c.sum("livestats_fold_seconds_count")), "us"}
	var frames, stats, gaps float64
	var deliveries []float64
	if w := plain.frames; w != nil {
		frames, stats, gaps = float64(len(w.frames)), float64(w.stats), float64(w.gaps)
		deliveries = w.deliveries()
	}
	m["events.sse_frames"] = metric{frames, "count"}
	m["events.sse_stats_frames"] = metric{stats, "count"}
	m["events.sse_gaps"] = metric{gaps, "count"}
	m["events.sse_delivery_p50_ms"] = metric{pctOrZero(deliveries, 0.5), "ms"}

	var late []float64
	for _, s := range plain.samples {
		late = append(late, ms(s.lateness()))
	}
	h, e := plain.health(), plain.endToEnd()
	m["latency.op_p50_ms"] = metric{e.op.P50, "ms"}
	m["latency.op_tail_ms"] = metric{e.op.Tail, "ms"}
	m["cpu.server_ms_per_op"] = metric{e.serverCPU, "ms"}
	m["cpu.client_ms_per_op"] = metric{e.clientCPU, "ms"}
	m["server.gc_cycles"] = metric{plain.serverGCs, "count"}
	m["gen.lateness_p99_ms"] = metric{pctOrZero(late, 0.99), "ms"}
	m["gen.cpu_util"] = metric{h.genCPU, "cores"}
	m["server.cpu_util"] = metric{ratio(plain.serverCPU.Seconds(), plain.wall.Seconds()), "cores"}
	return m, problems
}

func pctOrZero(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, q)
}
