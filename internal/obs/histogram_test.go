package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	floor := 50 * time.Microsecond
	// Below the floor lands in bucket 0; the floor itself starts bucket 1.
	if got := Latency.BucketFor(0); got != 0 {
		t.Errorf("BucketFor(0) = %d, want 0", got)
	}
	if got := Latency.BucketFor(int64(floor - 1)); got != 0 {
		t.Errorf("BucketFor(floor-1) = %d, want 0", got)
	}
	if got := Latency.BucketFor(int64(floor)); got != 1 {
		t.Errorf("BucketFor(floor) = %d, want 1", got)
	}
	// Growth of 2^0.25 per bucket: one octave spans 4 buckets.
	if got := Latency.BucketFor(int64(2 * floor)); got != 5 {
		t.Errorf("BucketFor(2*floor) = %d, want 5 (4 buckets per octave)", got)
	}
	// Far beyond the layout clamps to the overflow bucket, never panics.
	buckets := Latency.Buckets()
	if got := Latency.BucketFor(int64(24 * time.Hour)); got != buckets {
		t.Errorf("BucketFor(24h) = %d, want overflow bucket %d", got, buckets)
	}
	// Every bucket's range maps back to its own index.
	for i := 1; i < buckets; i++ {
		lo, hi := Latency.BucketRange(i)
		if got := Latency.BucketFor(lo); got != i {
			t.Fatalf("BucketFor(lo of %d) = %d", i, got)
		}
		if got := Latency.BucketFor(hi - 1); got != i {
			t.Fatalf("BucketFor(hi-1 of %d) = %d", i, got)
		}
	}
	// The layout reaches past a minute so exam-scale stalls stay resolved.
	if last, _ := Latency.BucketRange(buckets); time.Duration(last) < time.Minute {
		t.Errorf("last bucket ends at %v, want > 1m", time.Duration(last))
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	// 100 samples spread uniformly across one bucket's range: the
	// interpolated median should sit near the bucket midpoint, not at
	// either boundary.
	l, u := Latency.BucketRange(20)
	lo, hi := time.Duration(l), time.Duration(u)
	for i := 0; i < 100; i++ {
		h.Observe(lo + time.Duration(i)*(hi-lo)/100)
	}
	p50 := h.Quantile(0.5)
	mid := lo + (hi-lo)/2
	if p50 < lo || p50 >= hi {
		t.Fatalf("p50 %v outside its bucket [%v, %v)", p50, lo, hi)
	}
	if diff := math.Abs(float64(p50 - mid)); diff > float64(hi-lo)/4 {
		t.Errorf("p50 %v too far from bucket midpoint %v", p50, mid)
	}
	// The tail quantile is clamped by the exact max: a single large sample
	// must not report a latency beyond what was actually observed.
	h2 := &Histogram{}
	for i := 0; i < 999; i++ {
		h2.Observe(time.Millisecond)
	}
	h2.Observe(40 * time.Millisecond)
	if q := h2.Quantile(0.9999); q > 40*time.Millisecond {
		t.Errorf("p9999 %v exceeds observed max 40ms", q)
	}
	if q := h2.Quantile(1); q != 40*time.Millisecond {
		t.Errorf("p100 = %v, want the exact max", q)
	}
	// Empty histogram reports zeros.
	var empty Histogram
	if empty.Quantile(0.99) != 0 || empty.Count() != 0 || empty.Mean() != 0 {
		t.Error("empty histogram must digest to zeros")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	prev := time.Duration(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%v -> %v after %v", q, v, prev)
		}
		prev = v
	}
	// Sanity: the median of 0.1ms..100ms uniform samples is ~50ms; log
	// buckets at 2^0.25 growth bound the error to one bucket (~19%).
	p50 := h.Quantile(0.5)
	if p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Errorf("p50 = %v, want ~50ms", p50)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	samples := []time.Duration{
		10 * time.Microsecond, 80 * time.Microsecond, time.Millisecond,
		3 * time.Millisecond, 47 * time.Millisecond, 2 * time.Second,
	}
	for i, d := range samples {
		whole.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), whole.Count())
	}
	if a.Max() != whole.Max() {
		t.Errorf("merged max = %v, want %v", a.Max(), whole.Max())
	}
	if a.Mean() != whole.Mean() {
		t.Errorf("merged mean = %v, want %v", a.Mean(), whole.Mean())
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("merged q%.2f = %v, want %v", q, got, want)
		}
	}
	a.Merge(nil) // must not panic
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	want := time.Duration(goroutines*per-1) * time.Microsecond
	if h.Max() != want {
		t.Errorf("max = %v, want %v", h.Max(), want)
	}
}
