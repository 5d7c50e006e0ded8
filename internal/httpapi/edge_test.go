package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mineassess/internal/delivery"
	"mineassess/internal/obs"
	"mineassess/internal/trace"
)

// rowServer serves h as the one row "GET pattern" through the same edge
// as the production table.
func rowServer(o Options, pattern string, h http.HandlerFunc) *Server {
	s := newEdge(o)
	s.compile([]row{{"GET", pattern, func(w http.ResponseWriter, r *http.Request, _ string) { h(w, r) }}})
	return s
}

func TestRequestID(t *testing.T) {
	var seen string
	h := rowServer(Options{}, "/", func(w http.ResponseWriter, r *http.Request) {
		seen = obs.RequestIDFrom(r.Context())
	})

	// Generated when absent, echoed on the response.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if seen == "" || rec.Header().Get("X-Request-ID") != seen {
		t.Errorf("generated ID = %q, header %q", seen, rec.Header().Get("X-Request-ID"))
	}

	// Honoured when a proxy already assigned one.
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("X-Request-ID", "upstream-7")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "upstream-7" || rec.Header().Get("X-Request-ID") != "upstream-7" {
		t.Errorf("inbound ID = %q, header %q, want upstream-7", seen, rec.Header().Get("X-Request-ID"))
	}
}

func TestAccessLogLine(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := rowServer(Options{Logger: logger}, "/v1/teapot", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte("short and stout"))
	})
	req := httptest.NewRequest(http.MethodGet, "/v1/teapot", nil)
	req.Header.Set("X-Learner-ID", "alice")
	h.ServeHTTP(httptest.NewRecorder(), req)
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/v1/teapot", "status=418",
		"bytes=15", "learner=alice", "request_id=", "duration_ms="} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
}

// TestAccessLogDurationIsTheRouteSeries: the access log and the route's
// histogram read one interval, so for one request the logged duration_ms
// is the histogram's sum to the microsecond. The limiter's clock sleeps,
// so an interval that left the limiter out would read at least 2ms less.
func TestAccessLogDurationIsTheRouteSeries(t *testing.T) {
	var buf bytes.Buffer
	slowClock := func() time.Time {
		time.Sleep(time.Millisecond)
		return time.Now()
	}
	h := rowServer(Options{
		Logger:     slog.New(slog.NewJSONHandler(&buf, nil)),
		RatePerSec: 1000, Burst: 10, Now: slowClock,
	}, "/v1/x", func(w http.ResponseWriter, r *http.Request) {})
	req := httptest.NewRequest(http.MethodGet, "/v1/x", nil)
	req.Header.Set("X-Learner-ID", "alice")
	h.ServeHTTP(httptest.NewRecorder(), req)

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log %q: %v", buf.String(), err)
	}
	logged, _ := line[obs.LogKeyDurationMS].(float64)
	count, sum := h.Metrics().register("GET /v1/x").hist.CountSum()
	if count != 1 {
		t.Fatalf("route count = %d, want 1", count)
	}
	if got, want := int64(math.Round(logged*1000)), sum/1000; got != want {
		t.Errorf("access log duration = %dus, route histogram = %dus", got, want)
	}
}

// TestRecoverMiddleware: a panicking endpoint answers the INTERNAL
// envelope, and the close-out records the 500 once, under its row, in
// the access log and on the root span.
func TestRecoverMiddleware(t *testing.T) {
	var buf bytes.Buffer
	tracer := trace.New(trace.Options{})
	h := rowServer(Options{
		Logger: slog.New(slog.NewTextHandler(&buf, nil)),
		Obs:    obs.NewRegistry(),
		Tracer: tracer,
	}, "/v1/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	req := httptest.NewRequest(http.MethodGet, "/v1/boom", nil)
	req.Header.Set("X-Request-ID", "corr-500")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != CodeInternal {
		t.Errorf("body = %s, want INTERNAL envelope", rec.Body.Bytes())
	}

	snap := h.Metrics().Snapshot()
	if snap.Panics != 1 {
		t.Errorf("panic counter = %d", snap.Panics)
	}
	if len(snap.Routes) != 1 || snap.Routes[0].Route != "GET /v1/boom" ||
		snap.Routes[0].Count != 1 || snap.Routes[0].ByStatus["500"] != 1 {
		t.Errorf("routes = %+v, want GET /v1/boom counted once as a 500", snap.Routes)
	}
	if snap.Errors5xx != 1 {
		t.Errorf("errors5xx = %d, want 1", snap.Errors5xx)
	}
	var access string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "msg=request") {
			access = line
		}
	}
	if !strings.Contains(access, "status=500") || !strings.Contains(access, "request_id=corr-500") {
		t.Errorf("access log line = %q, want status=500 and request_id=corr-500", access)
	}
	tid, _, _ := trace.ParseTraceparent(rec.Header().Get("Traceparent"))
	if td := tracer.Trace(tid.String()); td == nil || td.Reason != "error" || td.RootName != "GET /v1/boom" {
		t.Errorf("trace = %+v, want the root retained with reason error", td)
	}
}

func TestRateLimiterBuckets(t *testing.T) {
	clock := newFakeClock()
	l := NewRateLimiter(1, 2, clock.Now) // 1 token/s, burst 2
	for i := 0; i < 2; i++ {
		if !l.Allow("alice") {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if l.Allow("alice") {
		t.Error("request beyond burst allowed")
	}
	// A different learner has their own bucket.
	if !l.Allow("bob") {
		t.Error("independent learner denied")
	}
	// Tokens refill with time.
	clock.Advance(1500 * time.Millisecond)
	if !l.Allow("alice") {
		t.Error("refilled request denied")
	}
	if l.Allow("alice") {
		t.Error("half-refilled token granted")
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	if l := NewRateLimiter(0, 5, nil); l != nil {
		t.Error("rate 0 should disable the limiter")
	}
}

// limitedServer is a one-row server with both buckets derived from rate
// and burst on a fake clock; send issues one request as learner ("" sends
// no X-Learner-ID), always from the same address.
func limitedServer(rate float64, burst int) (h *Server, send func(learner string) *httptest.ResponseRecorder) {
	clock := newFakeClock()
	h = rowServer(Options{RatePerSec: rate, Burst: burst, Now: clock.Now}, "/",
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	return h, func(learner string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		if learner != "" {
			req.Header.Set("X-Learner-ID", learner)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
}

func TestRateLimitMiddleware(t *testing.T) {
	h, send := limitedServer(1, 1)
	if rec := send("alice"); rec.Code != http.StatusOK {
		t.Fatalf("first request = %d", rec.Code)
	}
	rec := send("alice")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("missing Retry-After")
	}
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != CodeRateLimited {
		t.Errorf("body = %s, want RATE_LIMITED envelope", rec.Body.Bytes())
	}
	if n := h.Metrics().Snapshot().RateLimited; n != 1 {
		t.Errorf("limited counter = %d", n)
	}
}

// TestRateLimitRetryAfter: Retry-After is the time the refusing bucket
// takes to refill one token: 4s at 0.25 tokens/s, and never less than 1s.
func TestRateLimitRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want string
	}{{0.25, "4"}, {2, "1"}} {
		_, send := limitedServer(tc.rate, 1)
		send("alice")
		rec := send("alice")
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != tc.want {
			t.Errorf("rate %v: second request = %d with Retry-After %q, want 429 with %s",
				tc.rate, rec.Code, rec.Header().Get("Retry-After"), tc.want)
		}
	}
}

// TestRateLimitHeaderSpoofBounded: cycling fabricated X-Learner-ID values
// defeats the per-learner bucket but not the per-IP aggregate bucket.
func TestRateLimitHeaderSpoofBounded(t *testing.T) {
	_, send := limitedServer(1, 1) // IP aggregate: burst 16
	allowed := 0
	for i := 0; i < 40; i++ {
		if send(fmt.Sprintf("spoof-%d", i)).Code == http.StatusOK {
			allowed++
		}
	}
	if allowed != ipAggregateFactor {
		t.Errorf("spoofing client got %d requests through, want the IP burst of %d", allowed, ipAggregateFactor)
	}
}

// TestRateLimitLearnerIsolation: a learner hammering under a fixed ID
// exhausts only their own bucket — the shared IP budget is checked after
// the learner bucket, so NAT peers are untouched.
func TestRateLimitLearnerIsolation(t *testing.T) {
	_, send := limitedServer(1, 1)
	send("spammer")
	for i := 0; i < 50; i++ {
		if code := send("spammer").Code; code != http.StatusTooManyRequests {
			t.Fatalf("spammer request %d = %d, want 429", i, code)
		}
	}
	// The peer behind the same address still has IP budget left because
	// the spammer's denied requests consumed none of it.
	if code := send("peer").Code; code != http.StatusOK {
		t.Errorf("peer = %d, want 200", code)
	}
}

// TestRateLimitHeaderlessUsesIPBucketOnly: browser/SCO traffic without
// X-Learner-ID is governed by the aggregate per-IP bucket, not squeezed
// into a single learner bucket at the base rate.
func TestRateLimitHeaderlessUsesIPBucketOnly(t *testing.T) {
	_, send := limitedServer(1, 1) // the learner bucket would allow only 1 if misapplied
	allowed := 0
	for i := 0; i < 20; i++ {
		if send("").Code == http.StatusOK {
			allowed++
		}
	}
	if allowed != 16 {
		t.Errorf("headerless traffic got %d through, want the IP burst of 16", allowed)
	}
}

// TestRecoverLogsRequestID: the edge assigns the request ID before the
// endpoint runs, so panic lines carry the ID the client saw.
func TestRecoverLogsRequestID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := rowServer(Options{Logger: logger}, "/", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("X-Request-ID", "corr-42")
	h.ServeHTTP(httptest.NewRecorder(), req)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "msg=panic") {
			if !strings.Contains(line, "request_id=corr-42") {
				t.Errorf("panic line missing request ID: %s", line)
			}
			return
		}
	}
	t.Errorf("no panic line: %s", buf.String())
}

// TestStreamingThroughMiddleware: a handler that flushes (SSE-style) must
// keep its http.Flusher capability behind the edge with logging and
// metrics on — the statusRecorder forwards Flush instead of hiding it.
func TestStreamingThroughMiddleware(t *testing.T) {
	flushed := 0
	h := rowServer(Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}, "/v1/stream",
		func(w http.ResponseWriter, r *http.Request) {
			f, ok := w.(http.Flusher)
			if !ok {
				t.Fatal("the edge hid http.Flusher from the handler")
			}
			_, _ = w.Write([]byte("data: tick\n\n"))
			f.Flush()
			flushed++
		})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stream", nil))
	if flushed != 1 {
		t.Fatalf("handler flushed %d times", flushed)
	}
	if !rec.Flushed {
		t.Error("flush never reached the underlying writer")
	}
}

// TestResponseControllerThroughMiddleware: the modern flush path —
// http.NewResponseController — must reach the underlying writer via the
// recorder's Unwrap chain.
func TestResponseControllerThroughMiddleware(t *testing.T) {
	h := rowServer(Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}, "/v1/stream",
		func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("x"))
			if err := http.NewResponseController(w).Flush(); err != nil {
				t.Errorf("ResponseController.Flush: %v", err)
			}
		})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stream", nil))
	if !rec.Flushed {
		t.Error("controller flush never reached the underlying writer")
	}
}

// hijackProbe is a ResponseWriter that records whether Hijack was reached.
type hijackProbe struct {
	http.ResponseWriter
	hijacked bool
}

func (h *hijackProbe) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	h.hijacked = true
	return nil, nil, nil
}

// TestHijackThroughMiddleware: the recorder forwards Hijack when the
// underlying writer supports it and reports http.ErrNotSupported when not.
func TestHijackThroughMiddleware(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	probe := &hijackProbe{ResponseWriter: httptest.NewRecorder()}
	h := rowServer(Options{Logger: logger}, "/", func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Fatal("the edge hid http.Hijacker")
		}
		if _, _, err := hj.Hijack(); err != nil {
			t.Errorf("Hijack: %v", err)
		}
	})
	h.ServeHTTP(probe, httptest.NewRequest(http.MethodGet, "/", nil))
	if !probe.hijacked {
		t.Error("hijack never reached the underlying writer")
	}

	// A plain recorder cannot hijack: the wrapper must say so, not panic.
	h = rowServer(Options{Logger: logger}, "/", func(w http.ResponseWriter, r *http.Request) {
		if _, _, err := w.(http.Hijacker).Hijack(); !errors.Is(err, http.ErrNotSupported) {
			t.Errorf("Hijack on non-hijacker = %v, want http.ErrNotSupported", err)
		}
	})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

// TestMetricsConcurrentObserve: the per-route stats are pre-registered and
// lock-free; hammering one route from many goroutines (run with -race) must
// lose no count.
func TestMetricsConcurrentObserve(t *testing.T) {
	h := rowServer(Options{}, "/v1/hot",
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) })
	const workers, per = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/hot", nil))
			}
		}()
	}
	wg.Wait()
	snap := h.Metrics().Snapshot()
	if len(snap.Routes) != 1 || snap.Routes[0].Count != workers*per {
		t.Fatalf("snapshot = %+v, want one route with %d requests", snap.Routes, workers*per)
	}
	if snap.Routes[0].ByStatus["204"] != workers*per {
		t.Errorf("byStatus = %v", snap.Routes[0].ByStatus)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	srv, _ := testServer(t)
	sr := startV1(t, srv.URL, "exam1", "alice")
	doJSON(t, http.MethodGet, srv.URL+"/v1/sessions/"+sr.SessionID, nil, nil)
	doJSON(t, http.MethodGet, srv.URL+"/v1/sessions/ghost", nil, nil)

	var snap MetricsSnapshot
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/metrics", nil, &snap); code != http.StatusOK {
		t.Fatal("metrics fetch failed")
	}
	// Routes are labelled by pattern, not raw path, so the two session GETs
	// share one label.
	var sessions RouteMetrics
	for _, rm := range snap.Routes {
		if rm.Route == "GET /v1/sessions/{id}" {
			sessions = rm
		}
	}
	if sessions.Count != 2 {
		t.Errorf("session route count = %d, want 2 (routes %+v)", sessions.Count, snap.Routes)
	}
	if sessions.ByStatus["200"] != 1 || sessions.ByStatus["404"] != 1 {
		t.Errorf("byStatus = %v", sessions.ByStatus)
	}
	if snap.Requests < 3 {
		t.Errorf("total requests = %d", snap.Requests)
	}
	if snap.Errors5xx != 0 {
		t.Errorf("errors5xx = %d", snap.Errors5xx)
	}
}

// TestRateLimitDisabledEndToEnd: Options.RatePerSec 0 (examserver -rate 0)
// must disable limiting through the whole served chain — one learner
// hammering far past any plausible bucket sees zero 429s and the
// rate-limited metric never ticks. Load harnesses (cmd/loadgen) point at
// servers in exactly this mode; a latent limiter would invalidate every
// capacity number they report.
func TestRateLimitDisabledEndToEnd(t *testing.T) {
	store, _ := examFixture(t, false)
	clock := newFakeClock()
	eng := delivery.NewEngine(store, clock.Now, 8)
	server := NewServer(eng, store, Options{RatePerSec: 0, Burst: 1, Now: clock.Now})
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/exams", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Learner-ID", "hammer")
	for i := 0; i < 200; i++ {
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Fatalf("request %d rate limited with RatePerSec 0", i)
		}
	}
	if n := server.Metrics().Snapshot().RateLimited; n != 0 {
		t.Errorf("rateLimited metric = %d, want 0", n)
	}
}
