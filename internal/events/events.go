// Package events is the in-process live event bus of the delivery runtime.
// The fixed-form and adaptive engines publish typed lifecycle events
// (session.started, response.submitted, session.finished, session.expired,
// adaptive.*) and any number of subscribers — the livestats streaming
// aggregator, SSE connections fanned out by internal/httpapi, tests —
// observe them without touching the engines' hot paths.
//
// Contract:
//
//   - Publish NEVER blocks the emitter. Sequence assignment, replay-ring
//     append and per-subscriber enqueue are memory operations under short
//     locks; the optional durable log is fed through a non-blocking channel
//     drained by its own writer goroutine.
//   - Every event carries a per-exam monotonic sequence number (Seq) and a
//     bus-wide one (GlobalSeq). Per-exam sequences are the resume tokens of
//     the SSE endpoints' Last-Event-ID protocol.
//   - A subscription is a queue its reader drains: the reader waits on
//     Ready, then Take returns everything pending. No goroutine runs per
//     subscription.
//   - Live events queue under a bound. A consumer that falls behind loses
//     the OLDEST queued live events (the emitter is never throttled); the
//     loss is made explicit by a TypeGap marker event carrying the dropped
//     count, delivered in-stream before the first event after the gap.
//   - A resume (SubscribeOptions.Replay) replays the newest ring's worth of
//     events (Options.Ring, DefaultRing by default) and delivers that
//     backlog whole: the live bound never trims it. Older events are
//     announced by a leading TypeGap marker.
//   - With Options.Log set, every published event is also appended to a
//     durable log (an internal/wal file, like the bank journal's WAL),
//     which makes the resume window survive process restarts: the log
//     restores the sequence counters on open, and a resume after a restart
//     replays its newest ring's worth of events from disk.
package events

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"mineassess/internal/obs"
	"mineassess/internal/trace"
)

// Type names an event kind. The values are wire-stable: they appear as SSE
// event names and in the durable log.
type Type string

// Event types published by the engines, plus the stream-control marker.
const (
	// SessionStarted: a fixed-form sitting opened (Problems carries the
	// presentation order, Total its length).
	SessionStarted Type = "session.started"
	// ResponseSubmitted: one graded answer landed (Correct/Credit,
	// Answered/Total progress).
	ResponseSubmitted Type = "response.submitted"
	// SessionFinished: a sitting closed normally (Score/MaxScore finalized).
	SessionFinished Type = "session.finished"
	// SessionExpired: the clock ran out (Score/MaxScore over what was
	// answered in time).
	SessionExpired Type = "session.expired"
	// AdaptiveStarted / AdaptiveResponded / AdaptiveFinished mirror the CAT
	// engine's lifecycle; Theta/SE carry the running ability estimate.
	AdaptiveStarted   Type = "adaptive.started"
	AdaptiveResponded Type = "adaptive.responded"
	AdaptiveFinished  Type = "adaptive.finished"
	// TypeGap is the slow-consumer marker: Dropped events were discarded
	// from this subscription between the previous event and the next one.
	// Gap markers have no sequence numbers (they are per-subscription, not
	// part of the exam's event history).
	TypeGap Type = "stream.gap"
)

// Event is one published occurrence. Fields beyond the identity block are
// populated per type (see the Type constants); zero values are omitted on
// the wire.
type Event struct {
	// Seq is the per-exam monotonic sequence number, assigned by the bus.
	Seq uint64 `json:"seq,omitempty"`
	// GlobalSeq is the bus-wide monotonic sequence number.
	GlobalSeq uint64 `json:"globalSeq,omitempty"`
	Type      Type   `json:"type"`
	ExamID    string `json:"examId,omitempty"`
	SessionID string `json:"sessionId,omitempty"`
	StudentID string `json:"studentId,omitempty"`
	ProblemID string `json:"problemId,omitempty"`
	// Problems is the presentation order (session.started only).
	Problems []string `json:"problems,omitempty"`
	Correct  bool     `json:"correct,omitempty"`
	Credit   float64  `json:"credit,omitempty"`
	Answered int      `json:"answered,omitempty"`
	Total    int      `json:"total,omitempty"`
	Score    float64  `json:"score,omitempty"`
	MaxScore float64  `json:"maxScore,omitempty"`
	Theta    float64  `json:"theta,omitempty"`
	SE       float64  `json:"se,omitempty"`
	// StopReason is the adaptive stopping rule that fired (adaptive.finished).
	StopReason string `json:"stopReason,omitempty"`
	// Dropped is the number of events discarded before this TypeGap marker.
	Dropped int       `json:"dropped,omitempty"`
	At      time.Time `json:"at,omitempty"`

	// enc caches the JSON encoding, shared by every copy of a published
	// event (rings, subscriber queues, the durable log). Unexported, so
	// encoding/json skips it. See AppendJSON.
	enc *encodedEvent
}

// encodedEvent is the shared marshal-once cell attached by Publish: however
// many subscribers, SSE frames and durable-log appends consume an event, its
// JSON encoding is computed at most once.
type encodedEvent struct {
	once sync.Once
	data []byte
	err  error
}

// AppendJSON appends the event's JSON encoding to dst. Published events
// carry a shared cache, so concurrent consumers (64 SSE connections, the log
// writer) all reuse one encoding; synthetic events without the cache (gap
// markers built per subscription) marshal directly.
func (e *Event) AppendJSON(dst []byte) ([]byte, error) {
	if e.enc == nil {
		raw, err := json.Marshal(e)
		if err != nil {
			return dst, err
		}
		return append(dst, raw...), nil
	}
	e.enc.once.Do(func() { e.enc.data, e.enc.err = json.Marshal(e) })
	if e.enc.err != nil {
		return dst, e.enc.err
	}
	return append(dst, e.enc.data...), nil
}

// DefaultRing is the per-exam (and global) replay-ring capacity when
// Options.Ring is below 1: a resume replays up to this many of the newest
// events.
const DefaultRing = 1024

// DefaultBuffer is a subscription's live-queue capacity when
// SubscribeOptions.Buffer is 0.
const DefaultBuffer = 256

// Options configures a Bus.
type Options struct {
	// Ring bounds the in-memory replay rings (per exam, plus one global)
	// and so the window a resume replays; below 1 means DefaultRing. A ring
	// grows on demand up to the bound.
	Ring int
	// Log, when non-nil, makes every published event durable; the bus takes
	// ownership and closes it on Close. The log's restored sequence
	// counters seed the bus so numbering continues across restarts.
	Log *Log
	// Now is the event timestamp clock; nil means wall-clock time.
	Now func() time.Time
	// Obs, when non-nil, receives the bus's metrics: publish count, drops,
	// gap emissions, per-subscriber queue high-water, active subscribers,
	// ring occupancy. Nil leaves the fan-out path uninstrumented.
	Obs *obs.Registry
}

// Bus is the fan-out hub. The zero value is not usable; build with NewBus.
// A nil *Bus is a valid "disabled" bus: Publish on it is a no-op, so the
// engines can emit unconditionally.
type Bus struct {
	now func() time.Time
	log *Log

	mu      sync.Mutex
	closed  bool
	seqs    map[string]uint64 // per-exam counters
	global  uint64
	rings   map[string]*ring // per-exam replay rings
	allRing *ring            // global replay ring (firehose resume)
	ringCap int
	subs    map[*Subscription]struct{}

	// Metrics cells, nil unless Options.Obs was set (handles are nil-safe,
	// so the record sites below are unconditional).
	mPublished *obs.Counter // events accepted by Publish
	mDropped   *obs.Counter // drop-oldest discards across all subscriptions
	mGaps      *obs.Counter // stream.gap markers emitted
	mQueueHW   *obs.Gauge   // high-water mark of any subscriber queue
}

// NewBus builds a bus.
func NewBus(o Options) *Bus {
	if o.Now == nil {
		o.Now = time.Now
	}
	ringCap := o.Ring
	if ringCap < 1 {
		ringCap = DefaultRing
	}
	b := &Bus{
		now:     o.Now,
		log:     o.Log,
		seqs:    make(map[string]uint64),
		rings:   make(map[string]*ring),
		allRing: newRing(ringCap),
		ringCap: ringCap,
		subs:    make(map[*Subscription]struct{}),
	}
	if o.Log != nil {
		// Continue numbering where the durable log left off.
		for exam, seq := range o.Log.examSeqs {
			b.seqs[exam] = seq
		}
		b.global = o.Log.globalSeq
	}
	if reg := o.Obs; reg != nil {
		b.mPublished = reg.Counter("events_published_total", "Events accepted by the bus.")
		b.mDropped = reg.Counter("events_dropped_total",
			"Events discarded by drop-oldest across all subscriber queues.")
		b.mGaps = reg.Counter("events_gap_total", "stream.gap markers emitted to subscribers.")
		b.mQueueHW = reg.Gauge("events_queue_highwater",
			"Deepest any subscriber queue has ever been.")
		reg.GaugeFunc("events_subscribers", "Registered subscriptions.",
			func() float64 { return float64(b.Subscribers()) })
		reg.GaugeFunc("events_ring_entries", "Events retained in the global replay ring.",
			func() float64 {
				b.mu.Lock()
				defer b.mu.Unlock()
				return float64(b.allRing.count)
			})
		if b.log != nil {
			reg.GaugeFunc("events_log_dropped", "Events the durable log's queue rejected.",
				func() float64 { return float64(b.log.Dropped()) })
		}
	}
	return b
}

// Publish assigns sequence numbers and timestamps the event, then fans it
// out: replay rings, durable log (asynchronously), every matching
// subscriber. It never blocks and is safe from any goroutine; on a nil or
// closed bus it is a no-op. On a traced ctx the publish appears in the
// request's span tree as a "bus.publish" leaf with the event type
// attached; emit sites that fire after the persist step pass a
// trace.Detach'd context so the span parents under the request instead of
// orphaning. An untraced ctx costs two branches.
func (b *Bus) Publish(ctx context.Context, e Event) {
	sp := trace.FromContext(ctx).Child("bus.publish")
	sp.SetStr("event.type", string(e.Type))
	defer sp.End()
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seqs[e.ExamID]++
	e.Seq = b.seqs[e.ExamID]
	b.global++
	e.GlobalSeq = b.global
	if e.At.IsZero() {
		e.At = b.now()
	}
	// Attach the shared marshal-once cell before any copy is made: the ring
	// entries, every subscriber's queued copy and the log's queued copy all
	// alias it, so the whole fan-out costs one json.Marshal.
	e.enc = &encodedEvent{}
	r := b.rings[e.ExamID]
	if r == nil {
		r = newRing(b.ringCap)
		b.rings[e.ExamID] = r
	}
	r.push(e)
	b.allRing.push(e)
	if b.log != nil {
		b.log.enqueue(e)
	}
	for sub := range b.subs {
		if sub.examID == "" || sub.examID == e.ExamID {
			sub.push(e)
		}
	}
	b.mu.Unlock()
	b.mPublished.Inc()
}

// Subscribers reports the number of registered subscriptions (metrics,
// leak tests).
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Seq reports the exam's current (last assigned) sequence number.
func (b *Bus) Seq(examID string) uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seqs[examID]
}

// Head reports the bus-wide (last assigned) global sequence number —
// consumers compare it against their own position to measure lag.
func (b *Bus) Head() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.global
}

// SubscribeOptions selects what a subscription receives.
type SubscribeOptions struct {
	// ExamID restricts the stream to one exam; empty subscribes to every
	// event (the firehose).
	ExamID string
	// Buffer bounds the live queue (0 means DefaultBuffer), which grows on
	// demand up to it. When full, the oldest queued live event is dropped
	// in O(1) and a TypeGap marker is injected.
	// The replay backlog does not count against it.
	Buffer int
	// Replay requests delivery of already-published events before live
	// ones: exam subscriptions replay events with Seq > AfterSeq, firehose
	// subscriptions events with GlobalSeq > AfterSeq. The replay is
	// bounded: the replay ring's events, preceded by older ones from the
	// durable log's newest ring's worth (events the ring never held after
	// a restart, or lost while the log writer lagged). A resume the ring
	// covers is served from memory and never reads the log. A TypeGap
	// marker announces every requested event out of reach.
	Replay   bool
	AfterSeq uint64
}

// Subscribe registers a new subscription. The caller must eventually Close
// it. Returns nil on a nil or closed bus.
func (b *Bus) Subscribe(o SubscribeOptions) *Subscription {
	if b == nil {
		return nil
	}
	if o.Buffer <= 0 {
		o.Buffer = DefaultBuffer
	}
	sub := &Subscription{
		bus:    b,
		examID: o.ExamID,
		queue:  ring{limit: o.Buffer},
		ready:  make(chan struct{}, 1),
	}

	// A resume the replay ring covers never reads the durable log: the
	// check, the seed and the registration share one critical section, so
	// the ring cannot roll past the offset in between. Otherwise the log is
	// read without the bus lock (it is file I/O); anything published
	// meanwhile is covered by the ring, and the merge in seedLocked dedupes
	// the overlap by sequence.
	var logEvents []Event
	b.mu.Lock()
	if o.Replay && b.log != nil && !b.closed && !b.ringCoversLocked(o) {
		b.mu.Unlock()
		logEvents = b.log.ReadSince(o.ExamID, o.AfterSeq, b.ringCap)
		b.mu.Lock()
	}
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	if o.Replay {
		sub.seedLocked(b, o, logEvents)
	}
	b.subs[sub] = struct{}{}
	b.mu.Unlock()
	return sub
}

// streamLocked returns the head sequence and the replay ring (nil before
// the exam's first event) of o's stream: one exam's, or the firehose's.
// Callers hold b.mu.
func (b *Bus) streamLocked(o SubscribeOptions) (head uint64, r *ring) {
	if o.ExamID == "" {
		return b.global, b.allRing
	}
	return b.seqs[o.ExamID], b.rings[o.ExamID]
}

// ringCoversLocked reports whether the replay ring alone holds every event
// a resume from o.AfterSeq misses: none were missed, or the ring's oldest
// event is at most the first one missed. Callers hold b.mu.
func (b *Bus) ringCoversLocked(o SubscribeOptions) bool {
	head, r := b.streamLocked(o)
	if o.AfterSeq >= head {
		return true
	}
	if r == nil || r.count == 0 {
		return false
	}
	oldest, _ := r.segments()
	return seqFor(o, oldest[0]) <= o.AfterSeq+1
}

// seqFor is e's position in o's stream: the per-exam Seq for an exam
// subscription, the GlobalSeq for the firehose.
func seqFor(o SubscribeOptions, e Event) uint64 {
	if o.ExamID == "" {
		return e.GlobalSeq
	}
	return e.Seq
}

// seedLocked sets a new subscription's replay backlog (durable log +
// replay ring), prefixed with a gap marker when the requested offset has
// aged out of both. Callers hold b.mu.
func (sub *Subscription) seedLocked(b *Bus, o SubscribeOptions, logEvents []Event) {
	head, r := b.streamLocked(o)
	var ringEvents []Event
	if r != nil {
		older, newer := r.segments()
		for _, seg := range [2][]Event{older, newer} {
			for _, e := range seg {
				if seqFor(o, e) > o.AfterSeq {
					ringEvents = append(ringEvents, e)
				}
			}
		}
	}
	// Merge: log events strictly older than the ring's head, then the ring.
	backlog := ringEvents
	if len(logEvents) > 0 {
		cutoff := uint64(1<<63 - 1)
		if len(ringEvents) > 0 {
			cutoff = seqFor(o, ringEvents[0])
		}
		var merged []Event
		for _, e := range logEvents {
			if seqFor(o, e) < cutoff {
				merged = append(merged, e)
			}
		}
		backlog = append(merged, ringEvents...)
	}
	// Every hole is announced, never silently skipped: before the oldest
	// recoverable event, at any seam inside the merged backlog (the
	// durable log's flushed tail can trail the ring's oldest entry when
	// the writer is behind), and between the backlog's end and the bus
	// head (this exam's ring is empty after a restart and its logged
	// events were rotated away). Live events published after this
	// registration follow contiguously.
	prev := o.AfterSeq
	for _, e := range backlog {
		seq := seqFor(o, e)
		if seq > prev+1 {
			b.mGaps.Inc()
			sub.backlog = append(sub.backlog, Event{
				Type: TypeGap, ExamID: o.ExamID, Dropped: int(seq - prev - 1),
			})
		}
		prev = seq
		sub.backlog = append(sub.backlog, e)
	}
	if head > prev {
		b.mGaps.Inc()
		sub.backlog = append(sub.backlog, Event{
			Type: TypeGap, ExamID: o.ExamID, Dropped: int(head - prev),
		})
	}
	if len(sub.backlog) > 0 {
		sub.wake()
	}
}

// DetachSubscribers closes every subscription without shutting the bus
// down: Publish keeps flowing into the replay rings and the durable log.
// Server drain uses this — SSE connections (which stay in-flight until
// their subscription ends) terminate promptly, while learner requests
// completing during the drain still record their events durably, so a
// post-restart Last-Event-ID resume has no silent hole.
func (b *Bus) DetachSubscribers() {
	if b == nil {
		return
	}
	b.mu.Lock()
	subs := make([]*Subscription, 0, len(b.subs))
	for sub := range b.subs {
		subs = append(subs, sub)
	}
	b.subs = make(map[*Subscription]struct{})
	b.mu.Unlock()
	for _, sub := range subs {
		sub.stop()
	}
}

// Close shuts the bus down: the durable log is flushed and closed, every
// subscription ends (its Ready channel is closed). Publish afterwards is a
// no-op.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Subscription, 0, len(b.subs))
	for sub := range b.subs {
		subs = append(subs, sub)
	}
	b.subs = make(map[*Subscription]struct{})
	b.mu.Unlock()
	for _, sub := range subs {
		sub.stop()
	}
	if b.log != nil {
		_ = b.log.Close()
	}
}

func (b *Bus) unsubscribe(sub *Subscription) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
}

// Subscription is one consumer's bounded view of the stream: the replay
// backlog Subscribe seeded, then a bounded queue of live events. Its
// reader drains it — wait on Ready, then Take — and Closes it when done.
type Subscription struct {
	bus    *Bus
	examID string

	mu      sync.Mutex
	backlog []Event // the replay; the live bound never trims it
	queue   ring    // live events, at most the live-queue bound
	dropped int     // live events dropped since the last Take

	// ready holds one signal while events wait. push and the seed send
	// on it only under the bus lock and only while the subscription is in
	// the bus's set; every stop removes it from the set first, so closing
	// it can never race a send.
	ready    chan struct{}
	stopOnce sync.Once
}

// Ready receives a signal when events wait to be taken. It is closed when
// the subscription ends (Close, Bus.DetachSubscribers or Bus.Close).
func (s *Subscription) Ready() <-chan struct{} { return s.ready }

// Take appends the pending events to dst, oldest first, and returns the
// result: the replay backlog, then a TypeGap marker counting the live
// events dropped since the last Take, then the queued live events. Reusing
// dst across calls keeps steady-state delivery allocation-free.
//
//assess:hotpath
func (s *Subscription) Take(dst []Event) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = append(dst, s.backlog...)
	s.backlog = nil
	if s.dropped > 0 {
		s.bus.mGaps.Inc()
		dst = append(dst, Event{Type: TypeGap, ExamID: s.examID, Dropped: s.dropped})
		s.dropped = 0
	}
	return s.queue.drain(dst)
}

// Close ends the subscription and closes Ready. Idempotent.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.bus.unsubscribe(s)
	s.stop()
}

// stop closes Ready. Callers have already removed s from the bus's set.
func (s *Subscription) stop() {
	s.stopOnce.Do(func() { close(s.ready) })
}

// push enqueues one live event, dropping the oldest queued live event when
// the bounded queue is full. Never blocks; called with bus.mu held.
//
//assess:hotpath
func (s *Subscription) push(e Event) {
	s.mu.Lock()
	// Drop-oldest: the newest state is what a live dashboard wants, and the
	// gap marker tells the consumer history was lost.
	if s.queue.push(e) {
		s.dropped++
		s.bus.mDropped.Inc()
	}
	depth := s.queue.count
	s.mu.Unlock()
	s.bus.mQueueHW.SetMax(int64(depth))
	s.wake()
}

//assess:hotpath
func (s *Subscription) wake() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// ring is a circular buffer of at most limit events. Its backing array
// starts empty and doubles on demand up to limit, so a quiet exam's ring
// stays small.
type ring struct {
	buf   []Event
	start int
	count int
	limit int
}

func newRing(limit int) *ring { return &ring{limit: limit} }

// push appends e. Once the ring holds limit events it overwrites the oldest
// and reports true.
func (r *ring) push(e Event) (overwrote bool) {
	if r.count == len(r.buf) && len(r.buf) < r.limit {
		r.grow()
	}
	if r.count < len(r.buf) {
		r.buf[(r.start+r.count)%len(r.buf)] = e
		r.count++
		return false
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	return true
}

// grow doubles the backing array (16 slots at first, never past limit) and
// moves the events to its front, oldest first.
func (r *ring) grow() {
	n := min(max(2*len(r.buf), 16), r.limit)
	head, tail := r.segments()
	buf := make([]Event, n)
	copy(buf[copy(buf, head):], tail)
	r.buf, r.start = buf, 0
}

// segments returns the retained events oldest first, as at most two
// slices of the backing array.
func (r *ring) segments() (head, tail []Event) {
	end := r.start + r.count
	if end <= len(r.buf) {
		return r.buf[r.start:end], nil
	}
	return r.buf[r.start:], r.buf[:end-len(r.buf)]
}

// all returns the retained events oldest-first.
func (r *ring) all() []Event {
	head, tail := r.segments()
	return append(append(make([]Event, 0, r.count), head...), tail...)
}

// drain appends the retained events to dst oldest first and empties the
// ring, zeroing only the slots it read.
func (r *ring) drain(dst []Event) []Event {
	head, tail := r.segments()
	dst = append(append(dst, head...), tail...)
	clear(head)
	clear(tail)
	r.start, r.count = 0, 0
	return dst
}
