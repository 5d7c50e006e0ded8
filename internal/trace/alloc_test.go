package trace_test

import (
	"context"
	"testing"
	"time"

	"mineassess/internal/trace"
)

// spanRecordAllocCeiling is the allowance for recording one span: a
// recorded base of zero, plus 20% of it, plus half an allocation of noise.
const spanRecordAllocCeiling = 0*1.2 + 0.5

// TestSpanRecordDoesNotAllocate pins one child span (start, two
// attributes, end) under a live root to zero allocations. The root is
// replaced every MaxSpans-1 children, so every child lands in a free slot;
// the root's buffer comes from the tracer's pool and amortizes to a
// fraction of an allocation per span.
func TestSpanRecordDoesNotAllocate(t *testing.T) {
	tr := trace.New(trace.Options{Slow: time.Hour, SampleEvery: 1 << 30})
	ctx := context.Background()
	var root trace.Span
	left := 0
	var i int64
	got := testing.AllocsPerRun(20*trace.MaxSpans, func() {
		if left == 0 {
			root.End()
			_, root = tr.StartRoot(ctx, "probe.root")
			left = trace.MaxSpans - 1
		}
		sp := root.Child("probe.child")
		sp.SetStr("probe.kind", "probe")
		sp.SetInt("probe.i", i)
		sp.End()
		left--
		i++
	})
	root.End()
	t.Logf("span record: %.0f allocs/op (ceiling %.1f)", got, spanRecordAllocCeiling)
	if got > spanRecordAllocCeiling {
		t.Errorf("span record allocates %.0f per span, ceiling %.1f", got, spanRecordAllocCeiling)
	}
}
