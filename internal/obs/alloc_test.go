package obs

import "testing"

// recordAllocCeiling is the allowance for the record paths every
// instrumented hot path runs: a recorded base of zero, plus 20% of it,
// plus half an allocation of noise.
const recordAllocCeiling = 0*1.2 + 0.5

// TestRecordPathsDoNotAllocate pins Histogram.ObserveValue and Counter.Add
// to zero allocations per call.
func TestRecordPathsDoNotAllocate(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("probe_seconds", "allocation probe", Latency)
	c := reg.Counter("probe_total", "allocation probe")
	var v int64
	for _, p := range []struct {
		name string
		f    func()
	}{
		{"histogram observe", func() { v++; h.ObserveValue(v%1_000_000 + 1) }},
		{"counter add", func() { c.Add(1) }},
	} {
		got := testing.AllocsPerRun(1000, p.f)
		t.Logf("%s: %.0f allocs/op (ceiling %.1f)", p.name, got, recordAllocCeiling)
		if got > recordAllocCeiling {
			t.Errorf("%s allocates %.0f per call, ceiling %.1f", p.name, got, recordAllocCeiling)
		}
	}
}
