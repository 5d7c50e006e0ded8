package delivery

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mineassess/internal/bank"
	"mineassess/internal/item"
)

// startAllocs is the recorded cost of a warm fixed-order Start of a
// 40-question exam in heap allocations: the order, the problem list and
// index, the sitting with its answer map, SCORM data model and monitor
// ring, and its registration. The sitting shares the bank's problems
// instead of copying them. randomStartAllocs is the same Start on a
// RandomOrder exam, which adds the sitting's one source, the shuffled
// order and one option permutation per problem. A reading may exceed
// either by 20% plus half an allocation of noise.
const (
	startAllocs             = 18
	startAllocCeiling       = startAllocs*1.2 + 0.5
	randomStartAllocs       = 63
	randomStartAllocCeiling = randomStartAllocs*1.2 + 0.5
)

// TestStartAllocs pins the allocations of a warm fixed-order Start and of
// a warm random-order one.
func TestStartAllocs(t *testing.T) {
	store := bank.NewSharded(0)
	ids := make([]string, 40)
	for i := range ids {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%02d", i), "?",
			[]string{"w", "x", "y", "z"}, i%4)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		ids[i] = p.ID
	}
	if err := store.AddExam(&bank.ExamRecord{ID: "exam", ProblemIDs: ids,
		Display: item.FixedOrder, TestTimeSeconds: 600}); err != nil {
		t.Fatal(err)
	}
	if err := store.AddExam(&bank.ExamRecord{ID: "random", ProblemIDs: ids,
		Display: item.RandomOrder, TestTimeSeconds: 600}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(store, nil, 64)
	got := startAllocsPerRun(t, eng, "exam")
	t.Logf("warm fixed-order Start, 40 questions: %.2f allocs/op (ceiling %.1f)", got, startAllocCeiling)
	if got > startAllocCeiling {
		t.Errorf("warm Start allocates %.2f per op, ceiling %.1f", got, startAllocCeiling)
	}
	got = startAllocsPerRun(t, eng, "random")
	t.Logf("warm random-order Start, 40 questions: %.2f allocs/op (ceiling %.1f)", got, randomStartAllocCeiling)
	if got > randomStartAllocCeiling {
		t.Errorf("warm random-order Start allocates %.2f per op, ceiling %.1f", got, randomStartAllocCeiling)
	}
}

// startAllocsPerRun returns the mean heap allocations of one warm Start,
// measured as testing.AllocsPerRun measures (one P, after a warm-up) but
// not truncated to a whole number. The warm-up grows the session registry
// past the map growths that would otherwise add a fraction of an
// allocation per Start.
func startAllocsPerRun(t *testing.T, e *Engine, examID string) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := func() {
		if _, err := e.Start(context.Background(), examID, "alloc", 1); err != nil {
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
