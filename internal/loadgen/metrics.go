package loadgen

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mineassess/internal/obs"
	"mineassess/pkg/client"
)

// Route labels for per-route accounting. Each label is one client
// operation against one endpoint family, so the report maps directly onto
// the API surface under test.
const (
	RouteFixedStart  = "fixed.start"
	RouteFixedAnswer = "fixed.answer"
	RouteFixedFinish = "fixed.finish"
	RouteCATStart    = "cat.start"
	RouteCATRespond  = "cat.respond"
	RouteCATFinish   = "cat.finish"
	RouteWatchOpen   = "watch.open" // SSE connect through first byte of the stream
)

// routeOrder pins report ordering.
var routeOrder = []string{
	RouteFixedStart, RouteFixedAnswer, RouteFixedFinish,
	RouteCATStart, RouteCATRespond, RouteCATFinish,
	RouteWatchOpen,
}

// Collector aggregates one run's measurements: a latency histogram and an
// error count per route, plus watcher stream accounting. Hot-path methods
// (Observe, Frame, Gap) are lock-free; the error path takes a mutex to
// keep per-code counts, which is fine because errors are what we are
// trying not to have.
type Collector struct {
	mu     sync.Mutex
	hists  map[string]*obs.Histogram
	errs   map[string]map[string]int64 // route -> error code -> count
	frames atomic.Int64
	gaps   atomic.Int64
	stats  atomic.Int64 // live-stats frames interleaved into watch streams
}

// NewCollector builds a collector with the standard route set
// pre-registered, so Observe never allocates under load.
func NewCollector() *Collector {
	c := &Collector{
		hists: make(map[string]*obs.Histogram, len(routeOrder)),
		errs:  make(map[string]map[string]int64),
	}
	for _, r := range routeOrder {
		c.hists[r] = &obs.Histogram{}
	}
	return c
}

// hist returns the route's histogram, registering unknown routes lazily.
func (c *Collector) hist(route string) *obs.Histogram {
	if h, ok := c.hists[route]; ok {
		return h
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.hists[route]; ok {
		return h
	}
	h := &obs.Histogram{}
	c.hists[route] = h
	return h
}

// Observe records one successful operation's latency.
func (c *Collector) Observe(route string, d time.Duration) {
	c.hist(route).Observe(d)
}

// Error records one failed operation under its taxonomy code (transport
// failures and non-envelope responses group under "transport").
func (c *Collector) Error(route string, err error) {
	code := "transport"
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		code = string(apiErr.Code)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.errs[route]
	if m == nil {
		m = make(map[string]int64)
		c.errs[route] = m
	}
	m[code]++
}

// Frame counts one delivered SSE event frame; Gap counts a stream.gap
// marker (events the bus had to drop for this watcher); StatsFrame counts
// an interleaved live-statistics frame.
func (c *Collector) Frame()      { c.frames.Add(1) }
func (c *Collector) Gap()        { c.gaps.Add(1) }
func (c *Collector) StatsFrame() { c.stats.Add(1) }

// RouteSummary is one route's digested measurements.
type RouteSummary struct {
	Route string `json:"route"`
	obs.LatencySummary
	Errors       int64            `json:"errors"`
	ErrorsByCode map[string]int64 `json:"errorsByCode,omitempty"`
}

// Routes digests every route with at least one sample or error, in stable
// report order.
func (c *Collector) Routes() []RouteSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	known := make(map[string]bool, len(c.hists))
	var names []string
	for _, r := range routeOrder {
		if c.hists[r].Count() > 0 || len(c.errs[r]) > 0 {
			names = append(names, r)
		}
		known[r] = true
	}
	var extra []string
	for r := range c.hists {
		if !known[r] && (c.hists[r].Count() > 0 || len(c.errs[r]) > 0) {
			extra = append(extra, r)
		}
	}
	for r := range c.errs {
		if _, ok := c.hists[r]; !ok {
			extra = append(extra, r)
		}
	}
	sort.Strings(extra)
	names = append(names, extra...)

	out := make([]RouteSummary, 0, len(names))
	for _, r := range names {
		s := RouteSummary{Route: r}
		if h, ok := c.hists[r]; ok {
			s.LatencySummary = h.Summary()
		}
		for code, n := range c.errs[r] {
			if s.ErrorsByCode == nil {
				s.ErrorsByCode = make(map[string]int64)
			}
			s.ErrorsByCode[code] = n
			s.Errors += n
		}
		out = append(out, s)
	}
	return out
}

// TotalErrors sums every recorded error.
func (c *Collector) TotalErrors() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, m := range c.errs {
		for _, n := range m {
			total += n
		}
	}
	return total
}

// RequestQuantile merges every request-route histogram (watcher stream
// opens excluded: a long-poll connect is not a request/response operation)
// and returns the q-quantile across them — the figure the capacity SLO is
// judged on.
func (c *Collector) RequestQuantile(q float64) (int64, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	merged := &obs.Histogram{}
	for r, h := range c.hists {
		if r == RouteWatchOpen {
			continue
		}
		merged.Merge(h)
	}
	return merged.Count(), obs.Ms(merged.Quantile(q))
}

// StreamCounts reports the watcher totals: event frames, stats frames and
// gap markers.
func (c *Collector) StreamCounts() (frames, stats, gaps int64) {
	return c.frames.Load(), c.stats.Load(), c.gaps.Load()
}
