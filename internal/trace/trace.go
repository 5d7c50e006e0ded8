// Package trace is the request-scoped distributed tracing core: an
// allocation-conscious span model with context-carried propagation, W3C
// traceparent ingestion/emission at the HTTP edge, and a lock-free
// per-trace span collector feeding two bounded sinks — a ring of recent
// complete traces and a tail-based sampler that always retains the traces
// worth keeping (slow, errored, or gap-hit) plus a small uniform sample of
// the rest.
//
// Design notes, in the spirit of the obs package's conventions:
//
//   - Handles are nil-safe. A nil *Tracer starts no traces, the zero Span
//     is a no-op recorder, and every method on either costs one predictable
//     branch — instrumentation sites are unconditional.
//   - The span record path never allocates and never takes a lock. Spans of
//     one trace live in a fixed-capacity array owned by the trace; starting
//     a span is one atomic slot claim, ending it is one subtraction plus an
//     atomic decrement. Traces that outgrow the array drop the excess spans
//     (counted, never blocking).
//   - Retention is decided at the tail, when the root span ends and the
//     whole tree is known: errors, stream gaps and slow roots are always
//     kept, everything else is uniformly sampled. Trace buffers recycle
//     through a sync.Pool once both sinks have let go of them.
//
// Propagation rule: the current span travels in the context under this
// package's key. Handlers and engine methods must pass their request
// context down (the ctxflow analyzer enforces it); code that outlives or
// detaches from the request — post-persist event publishes — uses Detach,
// which drops cancellation but keeps the span link and request ID.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"mineassess/internal/obs"
)

// MaxSpans is the per-trace span capacity. Spans started beyond it are
// dropped (and counted); the bound is what keeps a trace buffer one flat
// pooled allocation instead of a growing tree of nodes.
const MaxSpans = 48

// maxAttrs is the per-span typed-attribute capacity.
const maxAttrs = 4

// AttrHTTPStatus is the root span's HTTP response status attribute.
const AttrHTTPStatus = "http.status"

// TraceID identifies one trace (16 bytes, W3C trace-id).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, W3C parent-id).
type SpanID [8]byte

// IsZero reports the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Attr is one typed span attribute: a string or an int64 under a key.
type Attr struct {
	Key string
	Str string
	Int int64
	// IsInt selects which value field is live.
	IsInt bool
}

// SpanRecord is one completed (or in-flight) span's storage inside its
// trace buffer. Records are written only by the goroutine that owns the
// span between start and end; sinks read them after the trace finalizes.
type SpanRecord struct {
	ID       SpanID
	Parent   SpanID
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    [maxAttrs]Attr
	NAttrs   uint8
	Err      bool
	ended    bool
}

// Trace-level condition flags, set by spans as they observe trouble.
const (
	flagError uint32 = 1 << iota
	flagGap
)

// buf is one trace's collector: a fixed span array claimed slot-by-slot
// with an atomic cursor. It recycles through the tracer's pool once every
// sink holding it lets go.
type buf struct {
	tracer    *Tracer
	id        TraceID
	idHex     string
	requestID string // the root context's request ID, for the slow log
	reason    string // retention reason, set at finalize
	next      atomic.Int32
	open      atomic.Int32
	dropped   atomic.Int32
	flags     atomic.Uint32
	rootEnd   atomic.Bool
	refs      atomic.Int32
	spans     [MaxSpans]SpanRecord
}

// setFlag ORs a condition flag in (atomic.Uint32.Or postdates the CI
// toolchain, so this is a CAS loop).
func (b *buf) setFlag(f uint32) {
	for {
		cur := b.flags.Load()
		if cur&f != 0 || b.flags.CompareAndSwap(cur, cur|f) {
			return
		}
	}
}

// reset clears the used portion for pool reuse (strings must be released).
func (b *buf) reset() {
	n := int(b.next.Load())
	if n > MaxSpans {
		n = MaxSpans
	}
	clear(b.spans[:n])
	b.next.Store(0)
	b.open.Store(0)
	b.dropped.Store(0)
	b.flags.Store(0)
	b.rootEnd.Store(false)
	b.refs.Store(0)
	b.idHex = ""
	b.requestID = ""
	b.reason = ""
}

// Span is a live handle onto one span record. The zero Span is a no-op;
// all methods are safe on it, so call sites record unconditionally whether
// or not the request is traced.
type Span struct {
	b   *buf
	idx int32
}

// Valid reports whether the span records anywhere.
func (s Span) Valid() bool { return s.b != nil }

// TraceID returns the owning trace's ID, or the zero ID.
func (s Span) TraceID() TraceID {
	if s.b == nil {
		return TraceID{}
	}
	return s.b.id
}

// TraceIDHex returns the owning trace's ID as hex without allocating (the
// string is built once per trace), or "" for the zero span. This is what
// instrumentation passes into obs exemplars.
func (s Span) TraceIDHex() string {
	if s.b == nil {
		return ""
	}
	return s.b.idHex
}

// SpanID returns this span's ID, or the zero ID.
func (s Span) SpanID() SpanID {
	if s.b == nil {
		return SpanID{}
	}
	return s.b.spans[s.idx].ID
}

// rec returns the span's record for owner-side mutation.
func (s Span) rec() *SpanRecord { return &s.b.spans[s.idx] }

// SetStr attaches a string attribute (dropped past the attr capacity).
func (s Span) SetStr(key, value string) {
	if s.b == nil {
		return
	}
	r := s.rec()
	if int(r.NAttrs) < maxAttrs {
		r.Attrs[r.NAttrs] = Attr{Key: key, Str: value}
		r.NAttrs++
	}
}

// SetInt attaches an integer attribute (dropped past the attr capacity).
func (s Span) SetInt(key string, value int64) {
	if s.b == nil {
		return
	}
	r := s.rec()
	if int(r.NAttrs) < maxAttrs {
		r.Attrs[r.NAttrs] = Attr{Key: key, Int: value, IsInt: true}
		r.NAttrs++
	}
}

// SetError marks the span failed and the whole trace error-hit, which the
// tail sampler always retains.
func (s Span) SetError() {
	if s.b == nil {
		return
	}
	s.rec().Err = true
	s.b.setFlag(flagError)
}

// SetGap marks the trace as having hit a stream.gap, which the tail
// sampler always retains.
func (s Span) SetGap() {
	if s.b == nil {
		return
	}
	s.b.setFlag(flagGap)
}

// Child starts a child span under s, started now. It is the span-record
// hot path: one atomic slot claim, no locks, no allocations.
//
//assess:hotpath
func (s Span) Child(name string) Span {
	if s.b == nil {
		return Span{}
	}
	return s.ChildAt(name, time.Now())
}

// ChildAt is Child with an explicit start time, for spans reconstructed
// after the fact from recorded timestamps (the WAL commit phases).
func (s Span) ChildAt(name string, start time.Time) Span {
	b := s.b
	if b == nil {
		return Span{}
	}
	i := b.next.Add(1) - 1
	if i >= MaxSpans {
		b.dropped.Add(1)
		return Span{}
	}
	b.open.Add(1)
	r := &b.spans[i]
	r.ID = b.tracer.nextSpanID()
	r.Parent = b.spans[s.idx].ID
	r.Name = name
	r.Start = start
	return Span{b: b, idx: i}
}

// End completes the span now.
//
//assess:hotpath
func (s Span) End() {
	if s.b == nil {
		return
	}
	s.EndAt(time.Now())
}

// EndErr completes the span now, marking it failed when *err is non-nil.
// Methods whose span covers every return path defer it on their named
// error result.
func (s Span) EndErr(err *error) {
	if s.b == nil {
		return
	}
	if *err != nil {
		s.SetError()
	}
	s.End()
}

// EndAt completes the span at an explicit end time. Ending the last open
// span of a trace whose root has ended finalizes the trace into the sinks.
// A second End on the same span is ignored.
func (s Span) EndAt(end time.Time) {
	b := s.b
	if b == nil {
		return
	}
	r := &b.spans[s.idx]
	if r.ended {
		return
	}
	r.ended = true
	if d := end.Sub(r.Start); d > 0 {
		r.Duration = d
	}
	if s.idx == 0 {
		b.rootEnd.Store(true)
	}
	if b.open.Add(-1) == 0 && b.rootEnd.Load() {
		b.finalize()
	}
}

// Options configures a Tracer. Zero values take the noted defaults.
type Options struct {
	// Slow is the root-duration threshold above which a trace is always
	// retained and, with Logger set, logged (wire it to the server's
	// -slow-request). 0 disables the slowness rule.
	Slow time.Duration
	// Logger receives one Warn "slow request" record per trace whose root
	// ran for at least Slow, whatever its retention reason: request and
	// trace IDs, reason, root name, HTTP status, duration and the
	// exclusive milliseconds per layer (see Fold). Nil logs nothing.
	Logger *slog.Logger
	// SampleEvery keeps 1 in N unremarkable traces (default 64); 1 keeps
	// every trace, for tests, benches and short diagnostic windows.
	SampleEvery int
	// Recent bounds the ring of recent complete traces (default 64).
	Recent int
	// Retain bounds the tail sampler's retained set (default 256).
	Retain int
	// Obs registers the tracer's self-metrics (spans started/finished/
	// dropped, sampler retained/evicted); nil disables them.
	Obs *obs.Registry
}

// Tracer owns trace buffers, ID generation and the two sinks. A nil
// *Tracer is a valid no-op: StartRoot returns the untraced context and the
// zero span.
type Tracer struct {
	slow        time.Duration
	log         *slog.Logger
	sampleEvery uint64
	sampleCtr   atomic.Uint64

	idHi     uint64
	idLo     uint64
	spanBase uint64
	idCtr    atomic.Uint64
	spanCtr  atomic.Uint64

	pool sync.Pool

	mu         sync.Mutex
	recent     []*buf // ring, recentAt is the next write slot
	recentAt   int
	retained   []*buf
	retainedAt int

	mStarted  *obs.Counter
	mFinished *obs.Counter
	mDropped  *obs.Counter
	mRetained *obs.Counter
	mEvicted  *obs.Counter
}

// New builds a tracer.
func New(o Options) *Tracer {
	if o.SampleEvery <= 0 {
		o.SampleEvery = 64
	}
	if o.Recent <= 0 {
		o.Recent = 64
	}
	if o.Retain <= 0 {
		o.Retain = 256
	}
	t := &Tracer{
		slow:        o.Slow,
		log:         o.Logger,
		sampleEvery: uint64(o.SampleEvery),
		idHi:        randUint64(),
		idLo:        randUint64(),
		spanBase:    randUint64(),
		recent:      make([]*buf, o.Recent),
		retained:    make([]*buf, o.Retain),
		mStarted:    o.Obs.Counter("trace_spans_started_total", "spans started"),
		mFinished:   o.Obs.Counter("trace_spans_finished_total", "spans finished"),
		mDropped:    o.Obs.Counter("trace_spans_dropped_total", "spans dropped at the per-trace capacity"),
		mRetained:   o.Obs.Counter("trace_sampler_retained_total", "traces retained by the tail sampler"),
		mEvicted:    o.Obs.Counter("trace_sampler_evicted_total", "retained traces evicted at the sampler bound"),
	}
	t.pool.New = func() any { return new(buf) }
	return t
}

// golden is the 64-bit golden-ratio multiplier; multiplying a counter by
// it spreads sequential IDs across the ID space so they do not look
// adjacent on the wire.
const golden = 0x9E3779B97F4A7C15

// nextTraceID returns a fresh process-unique trace ID.
func (t *Tracer) nextTraceID() TraceID {
	var id TraceID
	n := t.idCtr.Add(1)
	putUint64(id[:8], t.idHi)
	putUint64(id[8:], t.idLo^(n*golden))
	if id.IsZero() {
		id[15] = 1
	}
	return id
}

// nextSpanID returns a fresh process-unique span ID.
func (t *Tracer) nextSpanID() SpanID {
	var id SpanID
	putUint64(id[:], t.spanBase^(t.spanCtr.Add(1)*golden))
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// StartRoot opens a root span with a fresh trace ID and returns the
// span-carrying context. A nil tracer returns the context unchanged and
// the zero span.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, Span) {
	return t.StartRootLinked(ctx, name, TraceID{}, SpanID{})
}

// StartRootLinked is StartRoot continuing an inbound W3C trace: the trace
// adopts tid and the root span parents under remote (both may be zero for
// a fresh trace). The request ID on ctx, if any, rides along for the slow
// log.
func (t *Tracer) StartRootLinked(ctx context.Context, name string, tid TraceID, remote SpanID) (context.Context, Span) {
	if t == nil {
		return ctx, Span{}
	}
	b := t.pool.Get().(*buf)
	b.tracer = t
	if tid.IsZero() {
		tid = t.nextTraceID()
	}
	b.id = tid
	b.idHex = tid.String()
	b.requestID = obs.RequestIDFrom(ctx)
	b.next.Store(1)
	b.open.Store(1)
	r := &b.spans[0]
	r.ID = t.nextSpanID()
	r.Parent = remote
	r.Name = name
	r.Start = time.Now()
	sp := Span{b: b, idx: 0}
	return ContextWithSpan(ctx, sp), sp
}

// finalize runs when the last open span of a root-ended trace ends: it
// decides retention and hands the buffer to the sinks. The self-metrics
// update here, once per trace, rather than per span start/end: with every
// request's goroutines bumping shared counters, per-span Incs were two
// cache lines ping-ponging on the hottest path in the process.
func (b *buf) finalize() {
	t := b.tracer
	started := int64(b.next.Load())
	if started > MaxSpans {
		started = MaxSpans
	}
	// open == 0 here, so every started span has also finished.
	t.mStarted.Add(started)
	t.mFinished.Add(started)
	if d := int64(b.dropped.Load()); d > 0 {
		t.mDropped.Add(d)
	}
	root := &b.spans[0]
	flags := b.flags.Load()
	keep := true
	switch {
	case flags&flagError != 0:
		b.reason = "error"
	case flags&flagGap != 0:
		b.reason = "gap"
	case t.slow > 0 && root.Duration >= t.slow:
		b.reason = "slow"
	case t.sampleCtr.Add(1)%t.sampleEvery == 0:
		b.reason = "sample"
	default:
		keep = false
	}
	if t.log != nil && t.slow > 0 && root.Duration >= t.slow {
		t.logSlow(b)
	}
	t.sink(b, keep)
}

// sink stores the finalized buffer into the recent ring and, when kept,
// the sampler's retained ring. Buffers displaced from a ring are released;
// a buffer recycles once every ring holding it has let go.
func (t *Tracer) sink(b *buf, keep bool) {
	t.mu.Lock()
	b.refs.Store(1)
	if old := t.recent[t.recentAt]; old != nil {
		t.releaseLocked(old)
	}
	t.recent[t.recentAt] = b
	t.recentAt = (t.recentAt + 1) % len(t.recent)
	if keep {
		b.refs.Add(1)
		t.mRetained.Inc()
		if old := t.retained[t.retainedAt]; old != nil {
			t.mEvicted.Inc()
			t.releaseLocked(old)
		}
		t.retained[t.retainedAt] = b
		t.retainedAt = (t.retainedAt + 1) % len(t.retained)
	}
	t.mu.Unlock()
}

// releaseLocked drops one sink reference, recycling the buffer when it was
// the last. Callers hold t.mu.
func (t *Tracer) releaseLocked(b *buf) {
	if b.refs.Add(-1) == 0 {
		b.reset()
		t.pool.Put(b)
	}
}

// --- context propagation ---

type spanKey struct{}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the context's current span, or the zero span.
func FromContext(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	s, _ := ctx.Value(spanKey{}).(Span)
	return s
}

// StartSpan opens a child of the context's current span and returns the
// derived context plus the span. An untraced context comes back unchanged
// with the zero span, costing two branches.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	parent := FromContext(ctx)
	if !parent.Valid() {
		return ctx, Span{}
	}
	sp := parent.Child(name)
	if !sp.Valid() {
		return ctx, Span{}
	}
	return ContextWithSpan(ctx, sp), sp
}

// Detach returns a context that outlives the request: cancellation and
// deadlines are dropped, the trace span link and the request ID are kept.
// Post-persist event publishes use it so their spans parent correctly
// instead of orphaning (or carrying a context that may already be dead).
func Detach(ctx context.Context) context.Context {
	//assess:allow ctxflow: detaching from the request lifetime is the point
	out := context.Background()
	if rid := obs.RequestIDFrom(ctx); rid != "" {
		out = obs.WithRequestID(out, rid)
	}
	if sp := FromContext(ctx); sp.Valid() {
		out = ContextWithSpan(out, sp)
	}
	return out
}

// --- W3C traceparent ---

// ParseTraceparent decodes a W3C traceparent header
// ("00-<32 hex>-<16 hex>-<2 hex>"). It returns ok=false for malformed
// headers, unknown versions, or all-zero IDs.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, ok bool) {
	if len(h) < 55 || h[0] != '0' || h[1] != '0' ||
		h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, parent, false
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return tid, parent, false
	}
	if _, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil {
		return tid, parent, false
	}
	if tid.IsZero() || parent.IsZero() {
		return tid, parent, false
	}
	return tid, parent, true
}

// FormatTraceparent renders a traceparent header with the sampled flag
// set.
func FormatTraceparent(tid TraceID, span SpanID) string {
	var out [55]byte
	out[0], out[1], out[2] = '0', '0', '-'
	hex.Encode(out[3:35], tid[:])
	out[35] = '-'
	hex.Encode(out[36:52], span[:])
	out[52], out[53], out[54] = '-', '0', '1'
	return string(out[:])
}

// randUint64 seeds ID generation; IDs need process-uniqueness and an
// unguessable spread, not cryptographic strength, so a failed read falls
// back to the clock.
func randUint64() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 |
		uint64(b[3])<<32 | uint64(b[4])<<24 | uint64(b[5])<<16 |
		uint64(b[6])<<8 | uint64(b[7])
}

// putUint64 writes v big-endian.
func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}
