package client

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mineassess/internal/analysis"
)

// barrierServer serves GET /v1/exams but holds every request until the
// whole round has arrived, guaranteeing `conc` simultaneous connections —
// parallelism by construction, not by racing goroutine startup. ConnState
// counts connections the server actually accepted.
type barrierServer struct {
	srv     *httptest.Server
	conns   atomic.Int64
	arrived atomic.Int64
	release chan struct{}
}

func newBarrierServer(t *testing.T) *barrierServer {
	t.Helper()
	b := &barrierServer{release: make(chan struct{})}
	b.srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.arrived.Add(1)
		<-b.release
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"examIds":["e1"]}`))
	}))
	b.srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			b.conns.Add(1)
		}
	}
	b.srv.Start()
	t.Cleanup(b.srv.Close)
	return b
}

// round fires conc ListExams calls in parallel and releases them only once
// all conc are in-flight on the server.
func (b *barrierServer) round(t *testing.T, c *Client, conc int) {
	t.Helper()
	b.arrived.Store(0)
	b.release = make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.ListExams(); err != nil {
				t.Errorf("ListExams: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.arrived.Load() < int64(conc) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests arrived", b.arrived.Load(), conc)
		}
		time.Sleep(time.Millisecond)
	}
	close(b.release)
	wg.Wait()
}

// TestTunedTransportReusesConnections proves the point of TunedTransport:
// under repeated bursts of conc parallel requests the tuned pool opens conc
// connections once and reuses them every later round, while the stdlib
// default (2 idle conns per host) closes all but 2 after each round and
// redials the rest — measured here as accepted-connection counts on the
// server, the ground truth the client cannot fake.
func TestTunedTransportReusesConnections(t *testing.T) {
	const conc, rounds = 12, 4

	run := func(rt http.RoundTripper) int64 {
		b := newBarrierServer(t)
		c := New(b.srv.URL, WithTransport(rt), WithLearnerID("pool-test"))
		for r := 0; r < rounds; r++ {
			b.round(t, c, conc)
		}
		tr, _ := rt.(*http.Transport)
		if tr != nil {
			defer tr.CloseIdleConnections()
		}
		return b.conns.Load()
	}

	tuned := run(TunedTransport(conc))
	if tuned > conc {
		t.Errorf("tuned transport opened %d connections over %d rounds, want at most the burst size %d",
			tuned, rounds, conc)
	}

	small := http.DefaultTransport.(*http.Transport).Clone() // keeps MaxIdleConnsPerHost=2
	churned := run(small)
	// Every round beyond the first must redial the conc-2 connections the
	// 2-idle-conn default threw away; allow generous slack for keep-alive
	// races and still require visible churn.
	if churned < tuned+int64(conc) {
		t.Errorf("default transport opened %d connections, tuned %d — expected the default to churn well past the tuned pool",
			churned, tuned)
	}
}

// TestWithTransportInstalls: the option must install the RoundTripper on
// the client's HTTP stack (streams share it too).
func TestWithTransportInstalls(t *testing.T) {
	rt := TunedTransport(8)
	c := New("http://example.invalid", WithTransport(rt))
	if c.http.Transport != http.RoundTripper(rt) {
		t.Fatal("WithTransport did not install the transport")
	}
	if got := rt.MaxIdleConnsPerHost; got != 8 {
		t.Errorf("MaxIdleConnsPerHost = %d, want 8", got)
	}
	if rt.MaxConnsPerHost != 0 {
		t.Errorf("MaxConnsPerHost = %d, want 0 (no in-transport queueing)", rt.MaxConnsPerHost)
	}
}

// TestChunkedResponseKeepsConnection: the server streams a 64 KB JSON value,
// so the body is chunked, and writes the terminating chunk only when its
// handler returns, 20 ms after the value. A client that closes the body as
// soon as the value is decoded leaves the terminator unread and drops the
// connection; sequential calls must instead share one.
func TestChunkedResponseKeepsConnection(t *testing.T) {
	res := analysis.ExamResult{ExamID: "big"}
	for s := 0; s < 80; s++ {
		st := analysis.StudentResult{StudentID: fmt.Sprintf("s%03d", s)}
		for q := 0; q < 10; q++ {
			st.Responses = append(st.Responses, analysis.Response{StudentID: st.StudentID,
				ProblemID: fmt.Sprintf("q%02d", q), Option: "A", Credit: 1, Answered: true})
		}
		res.Students = append(res.Students, st)
	}
	if raw, _ := json.Marshal(&res); len(raw) < 64<<10 {
		t.Fatalf("export is %d bytes, want at least 64 KB", len(raw))
	}
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&res)
		w.(http.Flusher).Flush()
		time.Sleep(20 * time.Millisecond)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	c := New(srv.URL, WithTransport(tr))
	for i := 0; i < 5; i++ {
		got, err := c.Results("big")
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Students) != len(res.Students) {
			t.Fatalf("call %d decoded %d students, want %d", i, len(got.Students), len(res.Students))
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("5 sequential calls opened %d connections, want 1", n)
	}
}
