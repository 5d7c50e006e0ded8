package httpapi

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mineassess/internal/obs"
	"mineassess/pkg/api"
)

// Metrics is the in-process observability registry, exported at
// GET /v1/metrics. Per-route counters are keyed by the route table row's
// "<METHOD> <pattern>" (not the raw path), with every 404 and 405 under
// "unmatched", so there is one series per endpoint and session-ID fan-out
// never explodes the cardinality.
//
// Per-route stats are registered when the table is compiled, so the
// request hot path is a few atomic increments against the *routeStats
// that lookup returns with the row — no lock and no map lookup is taken
// per request. The registry mutex guards only registration and Snapshot.
//
// Built with NewMetricsWith, the per-route latency histograms and the
// process counters also live in a shared obs.Registry, so the same cells
// feed both the JSON snapshot and the Prometheus exposition on the ops
// listener.
type Metrics struct {
	start       time.Time
	inFlight    *obs.Gauge
	rateLimited *obs.Counter
	panics      *obs.Counter
	reg         *obs.Registry

	mu     sync.Mutex
	routes map[string]*routeStats
}

// Status codes outside [statusMin, statusMin+statusSlots) are clamped into
// the histogram's edge buckets; real handlers only emit 1xx–5xx.
const (
	statusMin   = 100
	statusSlots = 500
)

// routeStats is one route's counters. The latency histogram is lock-free
// and internally consistent (obs.Histogram.CountSum never understates the
// mean), so a scrape racing a request sees at worst one in-flight
// observation's skew per writer.
type routeStats struct {
	hist     *obs.Histogram
	byStatus [statusSlots]atomic.Int64
}

// observe records one completed request. traceID, when non-empty, becomes
// the histogram bucket's exemplar so a p99 number in /v1/metrics or the
// Prometheus exposition resolves to a concrete trace in /debug/traces.
func (rs *routeStats) observe(status int, d time.Duration, traceID string) {
	rs.hist.ObserveTraced(d, traceID)
	slot := status - statusMin
	if slot < 0 {
		slot = 0
	} else if slot >= statusSlots {
		slot = statusSlots - 1
	}
	rs.byStatus[slot].Add(1)
}

// NewMetricsWith returns a registry whose cells are additionally published
// through reg (nil reg means standalone): http_request_seconds{route=...}
// histograms, the http_requests_inflight gauge, and the
// http_rate_limited_total / http_panics_total counters.
func NewMetricsWith(reg *obs.Registry) *Metrics {
	m := &Metrics{start: time.Now(), reg: reg, routes: make(map[string]*routeStats)}
	if reg != nil {
		m.inFlight = reg.Gauge("http_requests_inflight",
			"Requests currently being served.")
		m.rateLimited = reg.Counter("http_rate_limited_total",
			"Requests rejected by the token-bucket rate limiter.")
		m.panics = reg.Counter("http_panics_total",
			"Handler panics converted to 500 responses.")
	} else {
		m.inFlight = new(obs.Gauge)
		m.rateLimited = new(obs.Counter)
		m.panics = new(obs.Counter)
	}
	return m
}

// register returns the route's stats, creating them on first registration;
// a label registered again gets the same entry.
func (m *Metrics) register(route string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[route]
	if !ok {
		rs = &routeStats{}
		if m.reg != nil {
			rs.hist = m.reg.Histogram("http_request_seconds",
				"HTTP request latency by route (method and pattern).",
				obs.Latency, obs.L("route", route))
		} else {
			rs.hist = obs.NewHistogram(obs.Latency)
		}
		m.routes[route] = rs
	}
	return rs
}

// RouteMetrics is one route's exported counters (wire type promoted to
// pkg/api).
type RouteMetrics = api.RouteMetrics

// MetricsSnapshot is the GET /v1/metrics response body (wire type promoted
// to pkg/api).
type MetricsSnapshot = api.MetricsSnapshot

// Snapshot exports the registry. Routes are sorted by pattern for stable
// output; scraping the snapshot does not reset any counter. Routes that
// have never served a request are omitted, matching the lazily-populated
// output of earlier versions. When built over an obs.Registry, every
// subsystem sample (journal, events, live stats, ...) rides along under
// Subsystems.
func (m *Metrics) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		InFlight:      m.inFlight.Value(),
		RateLimited:   m.rateLimited.Value(),
		Panics:        m.panics.Value(),
	}
	m.mu.Lock()
	for route, rs := range m.routes {
		count, sumNanos := rs.hist.CountSum()
		if count == 0 {
			continue
		}
		rm := RouteMetrics{
			Route:    route,
			Count:    count,
			ByStatus: make(map[string]int64),
			AvgMs:    float64(sumNanos) / 1e6 / float64(count),
			P50Ms:    obs.Ms(rs.hist.Quantile(0.50)),
			P99Ms:    obs.Ms(rs.hist.Quantile(0.99)),
			P999Ms:   obs.Ms(rs.hist.Quantile(0.999)),
			MaxMs:    obs.Ms(rs.hist.Max()),
		}
		for slot := range rs.byStatus {
			n := rs.byStatus[slot].Load()
			if n == 0 {
				continue
			}
			status := slot + statusMin
			rm.ByStatus[strconv.Itoa(status)] = n
			if status >= 500 {
				snap.Errors5xx += n
			}
		}
		snap.Requests += count
		snap.Routes = append(snap.Routes, rm)
	}
	m.mu.Unlock()
	sort.Slice(snap.Routes, func(i, j int) bool {
		return snap.Routes[i].Route < snap.Routes[j].Route
	})
	for _, s := range m.reg.Snapshot() {
		snap.Subsystems = append(snap.Subsystems, api.SubsystemMetric(s))
	}
	return snap
}
