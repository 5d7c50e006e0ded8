package httpapi

import (
	"bytes"
	"encoding/json"
	"log/slog"
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

// syncBuffer is a log sink the tracer writes from request goroutines while
// the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// records decodes every JSON log record written so far.
func (b *syncBuffer) records(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// slowRecord waits for the "slow request" record carrying requestID: the
// root span ends after the response is written, so the line can trail it.
func (b *syncBuffer) slowRecord(t *testing.T, requestID string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, rec := range b.records(t) {
			if rec["msg"] == "slow request" && rec[obs.LogKeyRequestID] == requestID {
				return rec
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow request record for %s", requestID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postTraced sends a POST with an X-Request-ID and returns the status and
// the trace ID echoed in the response's Traceparent.
func postTraced(t *testing.T, url, requestID, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", requestID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tid, _, ok := trace.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("response Traceparent %q", resp.Header.Get("Traceparent"))
	}
	return resp.StatusCode, tid.String()
}

// TestSlowRequestCorrelation: the tracer is the only slow-request log. A
// slow request yields exactly one Warn "slow request" record carrying the
// request ID, the trace ID echoed to the client, the retention reason and
// the per-layer breakdown — an operator greps one line and lands on the
// span tree. A slow request whose engine call fails logs with reason
// "error"; without a logger nothing is logged but the trace is retained.
func TestSlowRequestCorrelation(t *testing.T) {
	store, examID := examFixture(t, false)
	logs := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(logs, nil))
	tracer := trace.New(trace.Options{Slow: time.Nanosecond, Logger: logger})
	srv := httptest.NewServer(NewServer(delivery.NewEngine(store, nil, 8), store, Options{
		Logger: logger,
		Tracer: tracer,
	}))
	defer srv.Close()

	status, traceID := postTraced(t, srv.URL+"/v1/exams/"+examID+"/sessions", "corr-99", `{"studentId":"s1"}`)
	if status != http.StatusOK {
		t.Fatalf("start session = %d", status)
	}
	rec := logs.slowRecord(t, "corr-99")
	if rec["level"] != "WARN" || rec[obs.LogKeyTraceID] != traceID || rec[obs.LogKeyReason] != "slow" {
		t.Errorf("slow request record = %v, want WARN with trace_id %s and reason slow", rec, traceID)
	}
	if rec[obs.LogKeyStatus] != float64(http.StatusOK) {
		t.Errorf("status = %v", rec[obs.LogKeyStatus])
	}
	layers, _ := rec[obs.LogKeyLayerMS].(map[string]any)
	if engine, _ := layers[obs.LogKeyLayerEngine].(float64); engine <= 0 {
		t.Errorf("engine layer = %v in %v", layers[obs.LogKeyLayerEngine], rec)
	}

	status, _ = postTraced(t, srv.URL+"/v1/sessions/nope:answer", "corr-err", `{"problemId":"q1","response":"A"}`)
	if status != http.StatusNotFound {
		t.Fatalf("answer on a ghost session = %d", status)
	}
	if rec := logs.slowRecord(t, "corr-err"); rec[obs.LogKeyReason] != "error" {
		t.Errorf("errored slow request reason = %v, want error", rec[obs.LogKeyReason])
	}

	n := 0
	for _, rec := range logs.records(t) {
		switch {
		case rec["msg"] == "slow op":
			t.Errorf("stray slow op record: %v", rec)
		case rec["msg"] == "slow request" && rec[obs.LogKeyRequestID] == "corr-99":
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d slow request records for corr-99, want exactly 1", n)
	}

	// No logger: the trace is still retained as slow, and nothing is logged.
	quiet := trace.New(trace.Options{Slow: time.Nanosecond})
	qsrv := httptest.NewServer(NewServer(delivery.NewEngine(store, nil, 8), store, Options{Tracer: quiet}))
	defer qsrv.Close()
	before := len(logs.records(t))
	_, traceID = postTraced(t, qsrv.URL+"/v1/exams/"+examID+"/sessions", "corr-quiet", `{"studentId":"s2"}`)
	deadline := time.Now().Add(5 * time.Second)
	for quiet.Trace(traceID) == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if td := quiet.Trace(traceID); td == nil || td.Reason != "slow" {
		t.Fatalf("quiet tracer kept %+v, want the trace retained as slow", td)
	}
	if after := len(logs.records(t)); after != before {
		t.Errorf("nil-logger tracer wrote %d records", after-before)
	}
}

// TestMetricsSnapshotQuantiles: routeStats carry a real latency histogram
// now, so the JSON snapshot exports interpolated quantiles alongside the
// old average, and a shared obs registry's samples ride along under
// Subsystems.
func TestMetricsSnapshotQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	h := rowServer(Options{Obs: reg}, "/v1/x",
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) })
	m := h.Metrics()
	for i := 0; i < 50; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/x", nil))
	}
	snap := m.Snapshot()
	if len(snap.Routes) != 1 {
		t.Fatalf("routes = %+v", snap.Routes)
	}
	rm := snap.Routes[0]
	if rm.Count != 50 {
		t.Errorf("count = %d", rm.Count)
	}
	if rm.AvgMs <= 0 || rm.P50Ms <= 0 || rm.P99Ms < rm.P50Ms || rm.P999Ms < rm.P99Ms || rm.MaxMs <= 0 {
		t.Errorf("latency stats inconsistent: %+v", rm)
	}
	var sawHist, sawInflight bool
	for _, s := range snap.Subsystems {
		if s.Name == "http_request_seconds_count" && s.Labels["route"] == "GET /v1/x" {
			sawHist = true
			if s.Value != 50 {
				t.Errorf("subsystem count sample = %v", s.Value)
			}
		}
		if s.Name == "http_requests_inflight" {
			sawInflight = true
		}
	}
	if !sawHist || !sawInflight {
		t.Errorf("subsystem samples missing (hist %v, inflight %v): %+v",
			sawHist, sawInflight, snap.Subsystems)
	}

	// The same cells feed the Prometheus exposition.
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`http_request_seconds_bucket{route="GET /v1/x",le="+Inf"} 50`,
		`http_request_seconds_count{route="GET /v1/x"} 50`,
		"# TYPE http_requests_inflight gauge",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestStandaloneMetricsUnchanged: without a registry the metrics still
// count and quantile — a server built without Options.Obs sees the
// extended shape with no Subsystems section.
func TestStandaloneMetricsUnchanged(t *testing.T) {
	h := rowServer(Options{}, "/v1/y",
		func(w http.ResponseWriter, r *http.Request) {})
	m := h.Metrics()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/y", nil))
	snap := m.Snapshot()
	if len(snap.Routes) != 1 || snap.Routes[0].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Routes[0].P50Ms <= 0 {
		t.Errorf("standalone histogram recorded nothing: %+v", snap.Routes[0])
	}
	if snap.Subsystems != nil {
		t.Errorf("standalone snapshot grew subsystems: %+v", snap.Subsystems)
	}
}
