package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"mineassess/internal/race"
	"mineassess/pkg/api"
)

// sseHandler writes scripted SSE traffic and then behaves per mode.
func sseHandler(frames []string, hang chan struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fl := w.(http.Flusher)
		fl.Flush()
		for _, f := range frames {
			fmt.Fprint(w, f)
			fl.Flush()
		}
		if hang != nil {
			// Hold the connection open, sending nothing, until released or
			// the client goes away (so httptest.Server.Close never waits on
			// a stuck handler).
			select {
			case <-hang:
			case <-r.Context().Done():
			}
		}
	}
}

func TestStreamParsesFrames(t *testing.T) {
	frames := []string{
		": keep-alive\n\n",
		"event: session.started\nid: 1\ndata: {\"seq\":1,\"type\":\"session.started\",\"examId\":\"e1\",\"sessionId\":\"s1\"}\n\n",
		"event: stats\ndata: {\"examId\":\"e1\",\"seq\":1,\"activeSessions\":1,\"items\":[],\"scoreHistogram\":[]}\n\n",
		"event: stream.gap\ndata: {\"type\":\"stream.gap\",\"dropped\":3}\n\n",
	}
	srv := httptest.NewServer(sseHandler(frames, nil))
	defer srv.Close()

	c := New(srv.URL)
	stream, err := c.StreamEvents(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	f, err := stream.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Event != "session.started" || f.ID != "1" {
		t.Fatalf("frame 1: %+v", f)
	}
	ev, err := f.DecodeEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != api.EventSessionStarted || ev.SessionID != "s1" {
		t.Fatalf("decoded event: %+v", ev)
	}

	f, err = stream.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsStats() {
		t.Fatalf("frame 2 not stats: %+v", f)
	}
	st, err := f.DecodeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExamID != "e1" || st.ActiveSessions != 1 {
		t.Fatalf("decoded stats: %+v", st)
	}

	f, err = stream.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsGap() {
		t.Fatalf("frame 3 not gap: %+v", f)
	}
	ev, err = f.DecodeEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Dropped != 3 {
		t.Fatalf("gap dropped = %d", ev.Dropped)
	}

	if _, err := stream.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after server close: %v, want io.EOF", err)
	}
}

// TestStreamContextCancellationTearsDownPromptly is the satellite contract:
// a hung server (connection open, nothing arriving) must not trap the
// client — cancelling the context unblocks Next within moments, returning
// the context's error, and tears the connection down.
func TestStreamContextCancellationTearsDownPromptly(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	srv := httptest.NewServer(sseHandler([]string{
		"event: session.started\nid: 1\ndata: {\"seq\":1}\n\n",
	}, hang))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := New(srv.URL, WithLearnerID("alice"))
	stream, err := c.StreamExamLive(ctx, "e1", "7")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := stream.Next(); err != nil {
		t.Fatal(err)
	}

	// Next is now blocked on a silent connection; cancel must unblock it.
	errs := make(chan error, 1)
	go func() {
		_, err := stream.Next()
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Next block in the read
	cancel()
	select {
	case err := <-errs:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("context cancellation did not unblock the stream read")
	}
}

// TestStreamNotBoundByClientTimeout: the SDK's default 30s whole-request
// timeout must not apply to streams — a stream outliving the configured
// timeout keeps delivering.
func TestStreamNotBoundByClientTimeout(t *testing.T) {
	gate := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.(http.Flusher).Flush()
		<-gate
		fmt.Fprint(w, "event: session.finished\nid: 9\ndata: {\"seq\":9}\n\n")
		w.(http.Flusher).Flush()
	}))
	defer srv.Close()

	// A 50ms whole-request timeout would kill the stream before the frame
	// arrives if it applied.
	c := New(srv.URL, WithHTTPClient(&http.Client{Timeout: 50 * time.Millisecond}))
	stream, err := c.StreamEvents(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	time.Sleep(120 * time.Millisecond)
	close(gate)
	f, err := stream.Next()
	if err != nil {
		t.Fatalf("frame after the client timeout horizon: %v", err)
	}
	if f.ID != "9" {
		t.Fatalf("frame: %+v", f)
	}
}

// TestStreamHeadersAndErrors: Last-Event-ID and X-Learner-ID reach the
// server; non-2xx responses decode into APIError.
func TestStreamHeadersAndErrors(t *testing.T) {
	var gotLast, gotLearner string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotLast = r.Header.Get("Last-Event-ID")
		gotLearner = r.Header.Get("X-Learner-ID")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"code":"EXAM_NOT_FOUND","message":"no such exam"}`)
	}))
	defer srv.Close()

	c := New(srv.URL, WithLearnerID("bob"))
	_, err := c.StreamExamLive(context.Background(), "ghost", "42")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeExamNotFound {
		t.Fatalf("error = %v, want APIError EXAM_NOT_FOUND", err)
	}
	if gotLast != "42" || gotLearner != "bob" {
		t.Fatalf("headers: last=%q learner=%q", gotLast, gotLearner)
	}
}

// The recorded cost of one warm Next, in heap allocations: the frame, its
// event name, its id if it has one, and its own copy of the payload. A
// stats frame may also allocate statsFrameOverKB beyond its payload (the
// frame and name, and the size class of the copy). A reading may exceed
// each by 20% plus half a unit of noise.
const (
	statsFrameAllocs       = 3
	statsFrameAllocCeiling = statsFrameAllocs*1.2 + 0.5
	statsFrameOverKB       = 0.43
	statsFrameOverCeiling  = statsFrameOverKB*1.2 + 0.5
	eventFrameAllocs       = 4
	eventFrameAllocCeiling = eventFrameAllocs*1.2 + 0.5
)

// nextCost returns the mean bytes and allocations of one warm Next over a
// stream that repeats frame.
func nextCost(t *testing.T, frame []byte) (kb, allocs float64) {
	t.Helper()
	const warm, runs = 4, 200
	s := streamOver(bytes.Repeat(frame, warm+runs), 4096)
	next := func() {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		next()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		next()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024,
		float64(after.Mallocs-before.Mallocs) / runs
}

// TestStreamNextAllocs pins what Next allocates per frame: a 40-item stats
// frame, whose data line is longer than the reader's 4 KB buffer, and an
// event frame. The counts hold under the race detector too; the bytes only
// for normal builds (see internal/race).
func TestStreamNextAllocs(t *testing.T) {
	kr := 0.8734615384615385
	snap := api.ExamLiveStats{ExamID: "fixed", Seq: 4321, ActiveSessions: 3, FinishedSessions: 60,
		Responses: 2520, ScoreHistogram: make([]int, 10), MeanScore: 21.25, ScoreSD: 6.031249191, KR20: &kr}
	pbs := make([]float64, 40)
	for i := range pbs {
		pbs[i] = 0.05 + float64(i)/97
		snap.Items = append(snap.Items, api.ItemLiveStats{ProblemID: fmt.Sprintf("p%04d", 17*i),
			Attempts: 63, Correct: 31 + i%7, P: float64(31+i%7) / 63, PointBiserial: &pbs[i]})
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	stats := append(append([]byte("event: stats\ndata: "), payload...), "\n\n"...)
	if len(stats) <= 4096 {
		t.Fatalf("the stats frame is %d B; it must not fit the reader's 4 KB buffer", len(stats))
	}
	kb, allocs := nextCost(t, stats)
	overKB := kb - float64(len(payload))/1024
	t.Logf("stats frame of %d B: %.2f KB (%.2f KB beyond its payload), %.2f allocs per frame (ceilings %.2f KB, %.1f)",
		len(stats), kb, overKB, allocs, statsFrameOverCeiling, statsFrameAllocCeiling)
	if overKB > statsFrameOverCeiling && !race.Enabled {
		t.Errorf("a stats frame allocates %.2f KB beyond its %d-byte payload, ceiling %.2f KB", overKB, len(payload), statsFrameOverCeiling)
	}
	if allocs > statsFrameAllocCeiling {
		t.Errorf("a stats frame allocates %.2f times, ceiling %.1f", allocs, statsFrameAllocCeiling)
	}

	ev, err := json.Marshal(api.Event{Type: api.EventResponseSubmitted, Seq: 4322, GlobalSeq: 98765,
		At: time.Date(2026, 3, 14, 9, 26, 53, 589793238, time.UTC), ExamID: "fixed",
		SessionID: "s-0123456789abcdef", StudentID: "learner-00042", ProblemID: "p0170", Correct: true,
		Credit: 1, Answered: 18, Total: 40})
	if err != nil {
		t.Fatal(err)
	}
	event := []byte(fmt.Sprintf("event: %s\nid: 4322\ndata: %s\n\n", api.EventResponseSubmitted, ev))
	kb, allocs = nextCost(t, event)
	t.Logf("event frame of %d B: %.2f KB, %.2f allocs per frame (ceiling %.1f)", len(event), kb, allocs, eventFrameAllocCeiling)
	if allocs > eventFrameAllocCeiling {
		t.Errorf("an event frame allocates %.2f times, ceiling %.1f", allocs, eventFrameAllocCeiling)
	}
}
