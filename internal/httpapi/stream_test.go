package httpapi

// SSE endpoint suite: streaming must work through the complete middleware
// chain (request ID, access log, recovery, rate limiting — the
// statusRecorder forwards Flush), deliver events in order with resume
// tokens, interleave live statistics on the exam stream, and answer typed
// envelopes when disabled or misaddressed.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/livestats"
)

// sseFrame is one parsed server-sent-event frame.
type sseFrame struct {
	id    string
	event string
	data  []byte
}

// sseConn is a live SSE connection under test control.
type sseConn struct {
	cancel context.CancelFunc
	body   io.ReadCloser
	br     *bufio.Reader
}

func (c *sseConn) close() {
	c.cancel()
	c.body.Close()
}

// next reads one frame, skipping keep-alive comments.
func (c *sseConn) next(t *testing.T) *sseFrame {
	t.Helper()
	f := &sseFrame{}
	var data []string
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if f.event == "" && len(data) == 0 {
				continue
			}
			f.data = []byte(strings.Join(data, "\n"))
			return f
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "event:"):
			f.event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "id:"):
			f.id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
}

// nextEvent reads frames until one that is not a stats frame arrives.
func (c *sseConn) nextEvent(t *testing.T) *sseFrame {
	t.Helper()
	for {
		f := c.next(t)
		if f.event != "stats" {
			return f
		}
	}
}

// openSSE connects to an SSE path with an optional Last-Event-ID.
func openSSE(t *testing.T, base, path, lastID string) *sseConn {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	conn := &sseConn{cancel: cancel, body: resp.Body, br: bufio.NewReader(resp.Body)}
	t.Cleanup(conn.close)
	return conn
}

// streamFixture builds a server with the whole request edge (access log
// on, generous rate limit so its bookkeeping is exercised) plus bus and
// aggregator.
func streamFixture(t *testing.T) (*httptest.Server, *delivery.Engine, string, *events.Bus) {
	t.Helper()
	store, examID := examFixture(t, false)
	eng := delivery.NewEngine(store, nil, 8)
	bus := events.NewBus(events.Options{})
	t.Cleanup(bus.Close)
	eng.SetEventBus(bus)
	live := livestats.New(bus)
	t.Cleanup(live.Close)
	srv := httptest.NewServer(NewServer(eng, store, Options{
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		RatePerSec: 1e6, Burst: 1 << 20,
		Events:    bus,
		LiveStats: live,
	}))
	t.Cleanup(srv.Close)
	return srv, eng, examID, bus
}

func decodeEvent(t *testing.T, f *sseFrame) events.Event {
	t.Helper()
	var e events.Event
	if err := json.Unmarshal(f.data, &e); err != nil {
		t.Fatalf("decode %s frame: %v", f.event, err)
	}
	return e
}

func TestExamLiveStreamDeliversEventsInOrder(t *testing.T) {
	srv, eng, examID, _ := streamFixture(t)
	conn := openSSE(t, srv.URL, "/v1/exams/"+examID+"/live", "")

	sess, err := eng.Start(context.Background(), examID, "alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Answer(context.Background(), sess.ID, sess.Order[0], "A"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Answer(context.Background(), sess.ID, sess.Order[1], "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
		t.Fatal(err)
	}

	wantTypes := []events.Type{events.SessionStarted, events.ResponseSubmitted,
		events.ResponseSubmitted, events.SessionFinished}
	var lastSeq uint64
	for i, want := range wantTypes {
		f := conn.nextEvent(t)
		e := decodeEvent(t, f)
		if e.Type != want {
			t.Fatalf("frame %d: type %s, want %s", i, e.Type, want)
		}
		if f.event != string(want) {
			t.Fatalf("frame %d: SSE event name %q", i, f.event)
		}
		if f.id != fmt.Sprint(e.Seq) {
			t.Fatalf("frame %d: id %q vs seq %d", i, f.id, e.Seq)
		}
		if e.Seq != lastSeq+1 {
			t.Fatalf("frame %d: seq %d, want %d", i, e.Seq, lastSeq+1)
		}
		lastSeq = e.Seq
	}
	// A correct and a wrong answer were recorded.
	// (order[0] answered "A" = correct key, order[1] answered "w" = wrong)

	// The stats frames must catch up to the finish event and reflect the
	// folded sitting.
	deadline := time.After(2 * time.Second)
	for {
		var f *sseFrame
		done := make(chan struct{})
		go func() { f = conn.next(t); close(done) }()
		select {
		case <-done:
		case <-deadline:
			t.Fatal("no stats frame caught up to the finish event")
		}
		if f.event != "stats" {
			continue
		}
		var snap livestats.ExamLiveStats
		if err := json.Unmarshal(f.data, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Seq < lastSeq {
			continue // aggregator still behind; a fresher frame follows
		}
		if snap.FinishedSessions != 1 || snap.Responses != 2 {
			t.Fatalf("stats: %+v", snap)
		}
		return
	}
}

func TestExamLiveLastEventIDResume(t *testing.T) {
	srv, eng, examID, bus := streamFixture(t)

	sess, err := eng.Start(context.Background(), examID, "bob", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range sess.Order[:2] {
		if err := eng.Answer(context.Background(), sess.ID, pid, "A"); err != nil {
			t.Fatal(err)
		}
	}

	// First connection sees the backlog is NOT replayed without a token:
	// a fresh subscription is live-only.
	conn := openSSE(t, srv.URL, "/v1/exams/"+examID+"/live", "")
	if err := eng.Answer(context.Background(), sess.ID, sess.Order[2], "A"); err != nil {
		t.Fatal(err)
	}
	f := conn.nextEvent(t)
	e := decodeEvent(t, f)
	if e.Seq != 4 {
		t.Fatalf("live-only stream started at seq %d, want 4", e.Seq)
	}
	lastID := f.id
	conn.close()

	// More happens while disconnected.
	if err := eng.Answer(context.Background(), sess.ID, sess.Order[3], "A"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
		t.Fatal(err)
	}
	head := bus.Seq(examID)

	// Reconnect with Last-Event-ID: exactly the missed events replay, in
	// order, no gap marker.
	conn2 := openSSE(t, srv.URL, "/v1/exams/"+examID+"/live", lastID)
	for want := uint64(5); want <= head; want++ {
		f := conn2.nextEvent(t)
		if f.event == string(events.TypeGap) {
			t.Fatalf("unexpected gap marker on in-window resume")
		}
		e := decodeEvent(t, f)
		if e.Seq != want {
			t.Fatalf("resumed seq %d, want %d", e.Seq, want)
		}
	}
}

func TestFirehoseStreamSpansExams(t *testing.T) {
	srv, eng, examID, _ := streamFixture(t)
	conn := openSSE(t, srv.URL, "/v1/events:stream", "")

	if _, err := eng.Start(context.Background(), examID, "carol", 1); err != nil {
		t.Fatal(err)
	}
	f := conn.nextEvent(t)
	e := decodeEvent(t, f)
	if e.Type != events.SessionStarted || e.StudentID != "carol" {
		t.Fatalf("firehose frame: %+v", e)
	}
	// Firehose ids are the global sequence.
	if f.id != fmt.Sprint(e.GlobalSeq) {
		t.Fatalf("firehose id %q vs globalSeq %d", f.id, e.GlobalSeq)
	}

	// Resume by global sequence.
	if _, err := eng.Start(context.Background(), examID, "dave", 2); err != nil {
		t.Fatal(err)
	}
	conn2 := openSSE(t, srv.URL, "/v1/events:stream", f.id)
	e2 := decodeEvent(t, conn2.nextEvent(t))
	if e2.StudentID != "dave" {
		t.Fatalf("resumed firehose got %+v", e2)
	}
}

func TestStreamErrorEnvelopes(t *testing.T) {
	srv, _, examID, _ := streamFixture(t)

	// Unknown exam: 404 EXAM_NOT_FOUND, not an empty stream.
	resp, err := http.Get(srv.URL + "/v1/exams/ghost/live")
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelope(t, resp, http.StatusNotFound, CodeExamNotFound)

	// Bad resume token: 400.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/exams/"+examID+"/live", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelope(t, resp, http.StatusBadRequest, CodeBadRequest)

	// Wrong method.
	resp, err = http.Post(srv.URL+"/v1/events:stream", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelope(t, resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)
}

func TestStreamingDisabledIsTyped404(t *testing.T) {
	store, examID := examFixture(t, false)
	eng := delivery.NewEngine(store, nil, 8)
	srv := httptest.NewServer(NewServer(eng, store, Options{})) // no Events
	t.Cleanup(srv.Close)

	for _, path := range []string{"/v1/events:stream", "/v1/exams/" + examID + "/live"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		assertEnvelope(t, resp, http.StatusNotFound, CodeNotFound)
	}
}

func assertEnvelope(t *testing.T, resp *http.Response, status int, code Code) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d", resp.StatusCode, status)
	}
	var env Error
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Code != code {
		t.Fatalf("code %s, want %s", env.Code, code)
	}
}

// TestStreamClientDisconnectReleasesSubscription: closing the client
// connection must end the handler and detach its bus subscription.
func TestStreamClientDisconnectReleasesSubscription(t *testing.T) {
	srv, eng, examID, bus := streamFixture(t)
	conn := openSSE(t, srv.URL, "/v1/exams/"+examID+"/live", "")
	if _, err := eng.Start(context.Background(), examID, "erin", 1); err != nil {
		t.Fatal(err)
	}
	conn.nextEvent(t)
	conn.close()

	// After the handler notices the disconnect, publishing must reach zero
	// stream subscribers (only the livestats aggregator remains).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if bus.Subscribers() <= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("stream subscription leaked after client disconnect")
}

// TestStatsArriveOnQuietExam: a watcher connecting (fresh, or resuming at
// the head) to an exam with history but no current traffic must still get
// a stats frame — state-at-connect for fresh watchers, the final catch-up
// frame for resumers who disconnected before it.
func TestStatsArriveOnQuietExam(t *testing.T) {
	srv, eng, examID, bus := streamFixture(t)

	// A full sitting happens with nobody watching.
	sess, err := eng.Start(context.Background(), examID, "frank", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Answer(context.Background(), sess.ID, sess.Order[0], "A"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
		t.Fatal(err)
	}
	head := bus.Seq(examID)

	readStats := func(conn *sseConn) *livestats.ExamLiveStats {
		t.Helper()
		got := make(chan *sseFrame, 1)
		go func() {
			for {
				f := conn.next(t)
				if f.event == "stats" {
					got <- f
					return
				}
			}
		}()
		select {
		case f := <-got:
			var snap livestats.ExamLiveStats
			if err := json.Unmarshal(f.data, &snap); err != nil {
				t.Fatal(err)
			}
			return &snap
		case <-time.After(2 * time.Second):
			t.Fatal("no stats frame on a quiet exam")
			return nil
		}
	}

	// Fresh connect: baseline stats without waiting for a new event.
	conn := openSSE(t, srv.URL, "/v1/exams/"+examID+"/live", "")
	snap := readStats(conn)
	if snap.FinishedSessions != 1 {
		t.Fatalf("baseline stats: %+v", snap)
	}
	conn.close()

	// Resume at the head (client saw everything, missed only the trailing
	// stats frame): the catch-up stats frame must still arrive.
	conn2 := openSSE(t, srv.URL, "/v1/exams/"+examID+"/live", fmt.Sprint(head))
	snap = readStats(conn2)
	if snap.Seq != head || snap.FinishedSessions != 1 {
		t.Fatalf("resume-at-head stats: %+v", snap)
	}
}

// nonFlusher hides http.Flusher from a recorder.
type nonFlusher struct{ http.ResponseWriter }

// TestStatusRecorderReportsFlushCapability: http.ResponseController over
// the middleware's statusRecorder must surface ErrNotSupported for a
// non-flushing underlying writer (streamSSE trusts this to bail out) and
// succeed for a flushing one.
func TestStatusRecorderReportsFlushCapability(t *testing.T) {
	rec := httptest.NewRecorder()
	sr := &statusRecorder{ResponseWriter: &nonFlusher{rec}}
	if err := http.NewResponseController(sr).Flush(); !strings.Contains(fmt.Sprint(err), "not supported") {
		t.Fatalf("flush on non-flusher: %v, want ErrNotSupported", err)
	}
	sr2 := &statusRecorder{ResponseWriter: rec}
	if err := http.NewResponseController(sr2).Flush(); err != nil {
		t.Fatalf("flush on flusher: %v", err)
	}
	if sr2.status != http.StatusOK {
		t.Fatalf("flush did not record status: %d", sr2.status)
	}
}
