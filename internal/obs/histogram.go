package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// maxBuckets is the largest finite bucket count a Layout may declare. The
// histogram embeds a fixed-size counts array (rather than a slice sized per
// layout) so the zero value is ready to use and construction never
// allocates on a hot path.
const maxBuckets = 84

// Layout describes a histogram's bucket boundaries plus the scale used at
// exposition time (raw recorded value / scale = exported unit). Layouts are
// process constants: build them once at init and share them; a Layout is
// immutable after construction.
type Layout struct {
	bounds []int64 // exclusive upper bound of bucket i, ascending
	scale  float64 // exposition divisor (1e9 turns nanoseconds into seconds)
}

// ExpLayout builds a log-spaced layout: bucket boundaries grow by growth per
// bucket starting at floor. Observations below the floor land in bucket 0;
// observations beyond the last boundary land in the overflow bucket. The
// running boundary is kept in float64 and truncated per bucket, matching the
// layout the load harness has recorded against since PR 7.
func ExpLayout(floor int64, growth float64, buckets int, scale float64) Layout {
	if buckets < 1 || buckets > maxBuckets {
		panic(fmt.Sprintf("obs: layout wants %d buckets, max is %d", buckets, maxBuckets))
	}
	if floor < 1 || growth <= 1 {
		panic("obs: layout needs floor >= 1 and growth > 1")
	}
	b := make([]int64, buckets)
	bound := float64(floor)
	for i := range b {
		b[i] = int64(bound)
		bound *= growth
	}
	return Layout{bounds: b, scale: scale}
}

// Latency is the canonical latency layout: 84 buckets from 50µs growing by
// 2^0.25 (4 buckets per octave), spanning past a minute with ~19% worst-case
// quantile resolution. Values are nanoseconds; exposition is in seconds.
var Latency = ExpLayout(int64(50*time.Microsecond), math.Pow(2, 0.25), 84, 1e9)

// Sizes is a power-of-two layout for count-valued distributions (batch
// sizes, queue depths): 20 buckets from 1 to 2^19, exposed unscaled.
var Sizes = ExpLayout(1, 2, 20, 1)

// Buckets returns the number of finite buckets (the overflow bucket is
// extra).
func (l Layout) Buckets() int { return len(l.bounds) }

// Scale returns the exposition divisor.
func (l Layout) Scale() float64 { return l.scale }

// BucketFor returns the index whose range contains v. The precomputed
// bounds are the single source of truth (a log/exp round trip disagrees
// with the truncated integer bounds at exact boundaries); a binary search
// over ≤84 entries costs ~7 comparisons, noise next to the atomic add.
//
//assess:hotpath
func (l Layout) BucketFor(v int64) int {
	if v < l.bounds[0] {
		return 0
	}
	// Smallest i with v < bounds[i] is the containing bucket (bucket i
	// spans [bounds[i-1], bounds[i])); no such i means overflow.
	return sort.Search(len(l.bounds), func(i int) bool { return v < l.bounds[i] })
}

// BucketRange returns the [lo, hi) value range of bucket i.
func (l Layout) BucketRange(i int) (lo, hi int64) {
	if i == 0 {
		return 0, l.bounds[0]
	}
	lo = l.bounds[i-1]
	if i >= len(l.bounds) {
		// Overflow: report its start; interpolation degrades to the bound.
		return lo, lo
	}
	return lo, l.bounds[i]
}

// Histogram is a fixed-layout log-bucketed histogram. Observe is lock-free
// (one atomic add per call plus a max CAS loop) and allocation-free, so
// thousands of goroutines can record into one histogram without
// serializing on it. The zero value is ready to use and carries the
// Latency layout; use NewHistogram (or Registry.Histogram) for any other
// layout. A nil *Histogram is a no-op recorder, so call sites can
// instrument unconditionally.
type Histogram struct {
	lay    Layout
	counts [maxBuckets + 1]atomic.Int64 // +1: overflow
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	// ex holds per-bucket trace exemplars, allocated lazily on the first
	// traced observation so untraced histograms stay exactly as cheap as
	// before (one nil pointer per struct, no record-path cost).
	ex atomic.Pointer[exemplarSet]
	// exCtr decimates exemplar refreshes: last-write-wins semantics mean a
	// store per observation is pure waste at high rates (each store heap-
	// allocates an Exemplar), so an occupied bucket slot refreshes 1-in-16.
	exCtr atomic.Uint64
}

// exemplarSet is one exemplar slot per bucket (overflow included).
type exemplarSet [maxBuckets + 1]atomic.Pointer[Exemplar]

// Exemplar links one bucket of a histogram to a retained trace: the trace
// ID of a recent observation that landed in the bucket, plus the observed
// raw value. Reading a p99 bucket's exemplar answers "show me one actual
// slow request behind this number".
type Exemplar struct {
	TraceID string
	Value   int64
}

// NewHistogram returns a histogram with the given layout.
func NewHistogram(lay Layout) *Histogram {
	return &Histogram{lay: lay}
}

// Layout returns the effective layout (Latency for the zero value).
func (h *Histogram) Layout() Layout {
	if h.lay.bounds == nil {
		return Latency
	}
	return h.lay
}

// ObserveValue records one raw sample. Negative samples clamp to zero.
//
// Ordering note: the sum is published before the count so that a reader
// who loads count=n is guaranteed the sum already covers at least those n
// samples — the foundation of CountSum's skew bound.
//
//assess:hotpath
func (h *Histogram) ObserveValue(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[h.Layout().BucketFor(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Observe records one latency sample.
//
//assess:hotpath
func (h *Histogram) Observe(d time.Duration) { h.ObserveValue(int64(d)) }

// ObserveValueTraced records one raw sample and, when traceID is
// non-empty, stamps it as the exemplar of the sample's bucket (last write
// wins — the exemplar is a pointer to *an* instance, not a reservoir).
// The untraced path (traceID == "") is ObserveValue plus one branch; the
// traced path allocates one Exemplar, which only trace-carrying requests
// ever pay.
func (h *Histogram) ObserveValueTraced(v int64, traceID string) {
	if h == nil {
		return
	}
	h.ObserveValue(v)
	if traceID == "" {
		return
	}
	if v < 0 {
		v = 0
	}
	set := h.ex.Load()
	if set == nil {
		set = new(exemplarSet)
		if !h.ex.CompareAndSwap(nil, set) {
			set = h.ex.Load()
		}
	}
	// An empty bucket takes its first exemplar immediately; an occupied one
	// refreshes 1-in-16 (keeping the linked trace recent enough to still be
	// in the tracer's rings) so the hot record path allocates almost never.
	slot := &set[h.Layout().BucketFor(v)]
	if slot.Load() != nil && h.exCtr.Add(1)&15 != 0 {
		return
	}
	slot.Store(&Exemplar{TraceID: traceID, Value: v})
}

// ObserveTraced records one latency sample with a trace exemplar.
func (h *Histogram) ObserveTraced(d time.Duration, traceID string) {
	h.ObserveValueTraced(int64(d), traceID)
}

// ExemplarAt returns bucket i's exemplar, or nil when the bucket (or the
// whole histogram) has never seen a traced observation.
func (h *Histogram) ExemplarAt(i int) *Exemplar {
	if h == nil {
		return nil
	}
	set := h.ex.Load()
	if set == nil || i < 0 || i > maxBuckets {
		return nil
	}
	return set[i].Load()
}

// QuantileExemplar returns the trace ID exemplifying the bucket containing
// the q-quantile, scanning down to the nearest lower populated bucket when
// the exact one has no exemplar (quantile interpolation and exemplar
// stamping can disagree by a bucket). "" when nothing is linked.
func (h *Histogram) QuantileExemplar(q float64) string {
	if h == nil || h.ex.Load() == nil {
		return ""
	}
	idx := h.Layout().BucketFor(h.QuantileValue(q))
	for i := idx; i >= 0; i-- {
		if e := h.ExemplarAt(i); e != nil {
			return e.TraceID
		}
	}
	return ""
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// CountSum returns a consistent (count, sum) pair: the count is re-read
// after the sum and the read retried (bounded) until it is stable.
// Combined with ObserveValue publishing sum before count, the returned
// sum always covers every one of the counted samples — the mean is never
// understated. On the stable-read path the overshoot is bounded by one
// in-flight observation per concurrently recording goroutine; if the
// count never holds still across the retry budget, the final pair keeps
// the covers-all-counted guarantee but may include a few extra completed
// samples. Either way the skew is a handful of observations, not the
// unbounded count/total tear the pre-obs route metrics had.
func (h *Histogram) CountSum() (count, sum int64) {
	if h == nil {
		return 0, 0
	}
	count = h.count.Load()
	for i := 0; i < 4; i++ {
		sum = h.sum.Load()
		again := h.count.Load()
		if again == count {
			return count, sum
		}
		count = again
	}
	return count, h.sum.Load()
}

// MaxValue returns the largest recorded raw sample.
func (h *Histogram) MaxValue() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Max returns the largest recorded sample as a duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.MaxValue()) }

// MeanValue returns the arithmetic mean of the recorded raw samples.
func (h *Histogram) MeanValue() int64 {
	n, s := h.CountSum()
	if n == 0 {
		return 0
	}
	return s / n
}

// Mean returns the arithmetic mean as a duration.
func (h *Histogram) Mean() time.Duration { return time.Duration(h.MeanValue()) }

// QuantileValue returns the raw q-quantile (q in [0,1]) with linear
// interpolation inside the containing bucket, clamped by the exact
// observed maximum so a sparse tail cannot report a value nobody recorded.
func (h *Histogram) QuantileValue(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	lay := h.Layout()
	n := lay.Buckets()
	rank := q * float64(total)
	var seen float64
	for i := 0; i <= n; i++ {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := lay.BucketRange(i)
			v := lo
			if hi > lo {
				frac := (rank - seen) / c
				v = lo + int64(frac*float64(hi-lo))
			}
			if max := h.MaxValue(); v > max {
				v = max
			}
			return v
		}
		seen += c
	}
	return h.MaxValue()
}

// Quantile returns the q-quantile as a duration.
func (h *Histogram) Quantile(q float64) time.Duration {
	return time.Duration(h.QuantileValue(q))
}

// Merge folds other's samples into h. Both histograms must share a bucket
// layout, so merging is a flat array sum.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	for i := range other.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(other.sum.Load())
	h.count.Add(other.count.Load())
	for {
		cur, om := h.max.Load(), other.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			return
		}
	}
}

// LatencySummary is the serializable digest of one latency histogram, in
// milliseconds for human- and JSON-friendly reporting.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
	MaxMs  float64 `json:"maxMs"`
}

// Ms converts a duration to float milliseconds.
func Ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Summary digests a latency histogram.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanMs: Ms(h.Mean()),
		P50Ms:  Ms(h.Quantile(0.50)),
		P90Ms:  Ms(h.Quantile(0.90)),
		P99Ms:  Ms(h.Quantile(0.99)),
		P999Ms: Ms(h.Quantile(0.999)),
		MaxMs:  Ms(h.Max()),
	}
}

// String renders the digest for CLI output.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%.2fms p99=%.2fms p999=%.2fms max=%.2fms",
		s.Count, s.P50Ms, s.P99Ms, s.P999Ms, s.MaxMs)
}

// snapshotCounts copies the per-bucket counts for exposition.
func (h *Histogram) snapshotCounts() []int64 {
	lay := h.Layout()
	out := make([]int64, lay.Buckets()+1)
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}
