package httpapi

// Server-sent-event streaming: the live side of the monitor story. Two
// endpoints fan the event bus out over HTTP:
//
//	GET /v1/events:stream      every event on the bus (admin firehose);
//	                           Last-Event-ID resumes by global sequence.
//	GET /v1/exams/{id}/live    one exam's events interleaved with live
//	                           incremental item statistics ("stats"
//	                           frames); Last-Event-ID resumes by the
//	                           exam's per-exam sequence.
//
// Frames follow the SSE contract: `event:` carries the event type (or
// "stats"), `id:` the resume token (event frames only — gap markers and
// stats frames do not advance Last-Event-ID), `data:` one JSON object.
// Slow consumers lose oldest events, announced in-stream by a
// "stream.gap" frame with the dropped count; the emitting engines are
// never throttled by a stuck watcher.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mineassess/internal/events"
	"mineassess/internal/livestats"
	"mineassess/internal/trace"
)

// defaultHeartbeat is the keep-alive comment interval: frequent enough to
// hold idle connections open through common proxy timeouts.
const defaultHeartbeat = 15 * time.Second

// statsRefresh bounds how stale a /live stream's stats frame can be while
// no events arrive: the livestats aggregator is its own bus subscriber and
// may fold an event slightly after the stream delivered it, so the handler
// re-checks on this cadence and emits a fresh frame when the snapshot
// advanced.
const statsRefresh = 200 * time.Millisecond

// lastEventID resolves the SSE resume token: the standard Last-Event-ID
// header (set by EventSource and the SDK on reconnect), with a
// lastEventId query fallback for curl. Returns ok=false with no token.
func lastEventID(r *http.Request) (uint64, bool, error) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("lastEventId")
	}
	if raw == "" {
		return 0, false, nil
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad Last-Event-ID %q", raw)
	}
	return n, true, nil
}

// eventStream serves GET /v1/events:stream.
func (s *Server) eventStream(w http.ResponseWriter, r *http.Request, _ string) {
	after, resume, err := lastEventID(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	sub := s.bus.Subscribe(events.SubscribeOptions{
		Replay: resume, AfterSeq: after,
	})
	if sub == nil {
		writeErr(w, &Error{Code: CodeInternal, Message: "event bus is shut down"})
		return
	}
	defer sub.Close()
	s.streamSSE(w, r, sub, "", globalID, 0)
}

// examLive serves GET /v1/exams/{id}/live.
func (s *Server) examLive(w http.ResponseWriter, r *http.Request, examID string) {
	// A typo'd exam ID must be a 404 envelope, not a silent empty stream.
	if _, err := s.store.Exam(examID); err != nil {
		writeError(w, err)
		return
	}
	after, resume, err := lastEventID(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	sub := s.bus.Subscribe(events.SubscribeOptions{
		ExamID: examID, Replay: resume, AfterSeq: after,
	})
	if sub == nil {
		writeErr(w, &Error{Code: CodeInternal, Message: "event bus is shut down"})
		return
	}
	defer sub.Close()
	// Seed the stats-ordering watermark: a resuming client attests it has
	// seen events through `after`; a fresh live-only watcher gets
	// state-at-connect semantics (an immediate stats baseline covering the
	// history it chose not to fetch).
	delivered := after
	if !resume {
		delivered = s.bus.Seq(examID)
	}
	s.streamSSE(w, r, sub, examID, examSeqID, delivered)
}

// idFn extracts the SSE id (resume token) for an event frame; 0 means no id
// line (gap markers).
type idFn func(e events.Event) uint64

func globalID(e events.Event) uint64  { return e.GlobalSeq }
func examSeqID(e events.Event) uint64 { return e.Seq }

// streamSSE drains a subscription to the client until it disconnects or the
// subscription ends. With examID set, a "stats" frame carrying the livestats
// snapshot follows each delivered event batch (and refreshes while idle as
// the aggregator catches up), so watchers see raw events and the updated
// statistics in order on one connection. delivered seeds the stats
// watermark: events at or below it count as already seen by this client.
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, sub *events.Subscription, examID string, id idFn, delivered uint64) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // streaming must defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if err := rc.Flush(); err != nil {
		return // not a streaming-capable writer; nothing we can do
	}
	// The server's WriteTimeout is a whole-response deadline set at request
	// start — it would cut every stream off after ~10s under examserver's
	// defaults. Streams are heartbeat-supervised instead, so clear the
	// deadline for this response (best effort: an http.Server that cannot
	// is limited to its WriteTimeout per connection).
	_ = rc.SetWriteDeadline(time.Time{})

	ping := time.NewTicker(defaultHeartbeat)
	defer ping.Stop()
	var stats *time.Ticker // lazy: firehose streams never tick stats
	statsC := (<-chan time.Time)(nil)
	if examID != "" && s.live != nil {
		stats = time.NewTicker(statsRefresh)
		defer stats.Stop()
		statsC = stats.C
	}
	// Stats frames never lead the raw events: a snapshot is emitted only
	// once this stream has delivered (or the client has attested seeing)
	// every event it folds (snap.Seq <= delivered), so a watcher's
	// statistics always describe frames already on their screen. The
	// aggregator is an independent subscriber, so it may also lag — the
	// refresh ticker emits the catch-up frame once it folds the last
	// delivered event.
	var statsSeq uint64
	statsSent := false

	ctx := r.Context()
	// A traced stream records each frame write as an sse.frame leaf under
	// the request's root span (zero Span when untraced — every call below
	// is then a no-op branch).
	root := trace.FromContext(ctx)
	var batch []events.Event
	for {
		select {
		case _, ok := <-sub.Ready():
			if !ok {
				return // subscription ended: bus shut down or drained
			}
			// One Take covers everything pending, so one flush (and one
			// stats frame) covers the burst.
			batch = sub.Take(batch[:0])
			for _, e := range batch {
				if err := writeFrame(w, e, id, root); err != nil {
					return
				}
				if e.Seq > delivered {
					delivered = e.Seq
				}
			}
			if _, ok := s.tryStats(w, examID, delivered, &statsSeq, &statsSent); !ok {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-statsC:
			wrote, ok := s.tryStats(w, examID, delivered, &statsSeq, &statsSent)
			if !ok {
				return
			}
			if wrote {
				if err := rc.Flush(); err != nil {
					return
				}
			}
		case <-ping.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// tryStats emits a stats frame when the aggregator's snapshot is (a) newer
// than the last frame this stream sent and (b) covered by the events
// already delivered. Returns (wrote, ok); ok false means a write error.
func (s *Server) tryStats(w http.ResponseWriter, examID string, delivered uint64, statsSeq *uint64, statsSent *bool) (bool, bool) {
	if examID == "" || s.live == nil {
		return false, true
	}
	// Probe the folded sequence before building a snapshot: idle streams
	// poll this 5x/second per watcher, and the full snapshot is O(items).
	seq, ok := s.live.Seq(examID)
	if !ok || seq > delivered || (*statsSent && seq == *statsSeq) {
		return false, true
	}
	snap, ok := s.live.Snapshot(examID)
	if !ok || snap.Seq > delivered || (*statsSent && snap.Seq == *statsSeq) {
		return false, true
	}
	if err := writeStats(w, snap); err != nil {
		return false, false
	}
	*statsSeq, *statsSent = snap.Seq, true
	return true, true
}

// frameBuf is one SSE frame under assembly. Its encoder writes into the
// frame itself, so a stats snapshot's JSON lands in place, with no copy of
// its own.
type frameBuf struct {
	b   []byte
	enc *json.Encoder
}

func (f *frameBuf) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// framePool recycles SSE frame assembly buffers across writes and
// connections: with the event's JSON encoding cached at publish time, a
// frame write is pure appends into a pooled buffer plus one w.Write.
var framePool = sync.Pool{New: func() any {
	f := &frameBuf{b: make([]byte, 0, 512)}
	f.enc = json.NewEncoder(f)
	return f
}}

// writeFrame serializes one bus event as an SSE frame under a per-frame
// sse.frame leaf span of root. It assembles the whole frame — event name,
// optional id, data line — in a pooled buffer and writes it in one call,
// reusing the event's shared publish-time encoding instead of
// re-marshalling per subscriber. A stream.gap marker frame flags the whole
// trace (SetGap), so the tail sampler always retains traces whose stream
// dropped events — the slow-consumer evidence survives alongside the
// latency evidence.
func writeFrame(w http.ResponseWriter, e events.Event, id idFn, root trace.Span) error {
	sp := root.Child("sse.frame")
	sp.SetStr("event.type", string(e.Type))
	if e.Type == events.TypeGap {
		sp.SetGap()
	}
	f := framePool.Get().(*frameBuf)
	buf := f.b[:0]
	buf = append(buf, "event: "...)
	buf = append(buf, e.Type...)
	buf = append(buf, '\n')
	if seq := id(e); seq > 0 {
		buf = append(buf, "id: "...)
		buf = strconv.AppendUint(buf, seq, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, "data: "...)
	buf, err := e.AppendJSON(buf)
	if err == nil {
		buf = append(buf, '\n', '\n')
		_, err = w.Write(buf)
	}
	f.b = buf
	framePool.Put(f)
	if err != nil {
		sp.SetError()
	}
	sp.End()
	return err
}

// writeStats writes one stats frame: the event name, no id (stats frames
// do not advance Last-Event-ID) and the snapshot's JSON, exactly as
// json.Marshal encodes it, as the data line. The encoder's trailing newline
// ends the data line. The frame goes out in one call; a failed encode
// writes nothing.
func writeStats(w http.ResponseWriter, snap *livestats.ExamLiveStats) error {
	f := framePool.Get().(*frameBuf)
	defer framePool.Put(f)
	f.b = append(f.b[:0], "event: stats\ndata: "...)
	if err := f.enc.Encode(snap); err != nil {
		return err
	}
	f.b = append(f.b, '\n')
	_, err := w.Write(f.b)
	return err
}
