package catdelivery

import (
	"context"
	"math"
	"runtime"
	"testing"

	"mineassess/internal/bank"
)

// startAllocs is the recorded cost of a warm Start on an unchanged bank in
// heap allocations: the sitting, its first record, selection and item view,
// and the record's persist. A reading may exceed it by 20% plus half an
// allocation of noise.
const (
	startAllocs       = 9
	startAllocCeiling = startAllocs*1.2 + 0.5
)

// TestStartAllocs pins the allocations of a warm Start. Sittings share the
// exam's pool instead of copying it, so the count is the same at 250 and
// at 1,000 pool items.
func TestStartAllocs(t *testing.T) {
	var got []float64
	for _, n := range []int{250, 1000} {
		store := bank.NewSharded(0)
		calibratedExam(t, store, "pool", n, 1.5, 3)
		e, err := NewEngine(store, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		allocs := startAllocsPerRun(t, e)
		t.Logf("warm Start at %d pool items: %.2f allocs/op (ceiling %.1f)", n, allocs, startAllocCeiling)
		got = append(got, allocs)
	}
	if math.Abs(got[0]-got[1]) >= 0.5 {
		t.Errorf("warm Start allocates %.2f at 250 pool items but %.2f at 1,000; it must not grow with the pool", got[0], got[1])
	}
	if got[1] > startAllocCeiling {
		t.Errorf("warm Start allocates %.2f per op, ceiling %.1f", got[1], startAllocCeiling)
	}
}

// startAllocsPerRun returns the mean heap allocations of one warm Start,
// measured as testing.AllocsPerRun measures (one P, after a warm-up) but
// not truncated to a whole number: under -race sync.Pool drops items at
// random, which moves the mean by a fraction and can move a truncated
// count across an integer. The warm-up builds the pool every later Start
// shares, and grows the session registry and the store past the map
// growths that would otherwise add a fraction of an allocation per Start.
func startAllocsPerRun(t *testing.T, e *Engine) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := func() {
		if _, _, err := e.Start(context.Background(), "pool", "alloc", Config{MaxItems: 5}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		start()
	}
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		start()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}
