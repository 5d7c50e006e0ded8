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
	startAllocs       = 7
	startAllocCeiling = startAllocs*1.2 + 0.5
)

// respondAllocs and respondKB are the recorded cost of a warm
// SubmitResponse in a 40-item sitting, in heap allocations and kilobytes:
// the next record and response stream, the estimate, the next item's
// selection and view, and the record's persist. The ceilings follow the
// same rule as Start's. Selection allocates nothing that grows with the
// pool, so the bytes at 1,000 pool items may exceed those at 250 by no
// more than respondPoolSlackKB.
const (
	respondAllocs       = 7.4
	respondAllocCeiling = respondAllocs*1.2 + 0.5
	respondKB           = 1.24
	respondKBCeiling    = respondKB*1.2 + 0.5
	respondPoolSlackKB  = 0.25
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

// TestRespondAllocs pins the allocations of a warm SubmitResponse, bytes
// included: a count alone would not see pool-sized scratch, which is a few
// large allocations.
func TestRespondAllocs(t *testing.T) {
	var allocs, kb []float64
	for _, n := range []int{250, 1000} {
		store := bank.NewSharded(0)
		calibratedExam(t, store, "pool", n, 1.5, 3)
		e, err := NewEngine(store, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, b := respondCostPerRun(t, e)
		t.Logf("warm SubmitResponse at %d pool items: %.2f allocs, %.2f KB per op (ceilings %.1f, %.2f KB)",
			n, a, b, respondAllocCeiling, respondKBCeiling)
		allocs, kb = append(allocs, a), append(kb, b)
	}
	if kb[1]-kb[0] > respondPoolSlackKB {
		t.Errorf("warm SubmitResponse allocates %.2f KB at 250 pool items but %.2f KB at 1,000; it must not grow with the pool", kb[0], kb[1])
	}
	if allocs[1] > respondAllocCeiling {
		t.Errorf("warm SubmitResponse allocates %.2f per op, ceiling %.1f", allocs[1], respondAllocCeiling)
	}
	if kb[1] > respondKBCeiling {
		t.Errorf("warm SubmitResponse allocates %.2f KB per op, ceiling %.2f KB", kb[1], respondKBCeiling)
	}
}

// respondCostPerRun returns the mean heap allocations and kilobytes of one
// warm SubmitResponse, measured like startAllocsPerRun: one P, after 50
// warm-up sittings, over every response of 100 sittings of 40 items that
// were started before the count. Learners answer right and wrong in a
// fixed pattern, so the ability estimate moves through the pool.
func respondCostPerRun(t *testing.T, e *Engine) (allocs, kb float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const items = 40
	start := func(n int) ([]*Session, []*ItemView) {
		sittings, views := make([]*Session, n), make([]*ItemView, n)
		for i := range sittings {
			s, view, err := e.Start(context.Background(), "pool", "alloc", Config{MaxItems: items}, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			sittings[i], views[i] = s, view
		}
		return sittings, views
	}
	answerAll := func(sittings []*Session, views []*ItemView) {
		for step := 0; step < items; step++ {
			for i, s := range sittings {
				response := "A"
				if (i+step)%3 == 0 {
					response = "B"
				}
				prog, err := e.SubmitResponse(context.Background(), s.ID, views[i].ProblemID, response)
				if err != nil {
					t.Fatal(err)
				}
				views[i] = prog.Next
			}
		}
	}
	answerAll(start(50))
	sittings, views := start(100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	answerAll(sittings, views)
	runtime.ReadMemStats(&after)
	runs := float64(len(sittings) * items)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
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
