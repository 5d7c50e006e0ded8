package main

// Observability overhead (experiment E25 and the -obs baseline section):
// the same journal-commit and event fan-out measurements as E21/E22, run
// once without and once with a live obs.Registry wired in, so the cost of
// the metrics instrumentation on the hot paths is a number in the baseline
// rather than a hope. The acceptance contract is that instrumented
// throughput stays within a few percent of uninstrumented, and that the
// core record operations — Histogram.Observe and Counter.Add — allocate
// nothing (checked against a hard zero by -check-allocs, not against a
// recorded baseline).

import (
	"fmt"
	"testing"

	"mineassess/internal/bank"
	"mineassess/internal/loadgen"
	"mineassess/internal/obs"
	"mineassess/internal/wal"
)

// ObsSection is the "obs" block of BENCH_BASELINE.json.
type ObsSection struct {
	// Journal holds the group-commit write benchmark with obs off and on.
	Journal []JournalResult `json:"journal"`
	// FanOut holds the per-delivery fan-out benchmark with obs off and on.
	FanOut []HotpathResult `json:"fanOut"`
	// Allocs holds the zero-allocation probes for the obs record paths.
	Allocs []HotpathResult `json:"allocs"`
}

func onOff(enabled bool) string {
	if enabled {
		return "on"
	}
	return "off"
}

// measureObsAllocs benchmarks the two record operations every instrumented
// hot path leans on. Both must stay at zero allocations per op — these are
// pinned to zero by -check-allocs.
func measureObsAllocs() []HotpathResult {
	reg := obs.NewRegistry()
	h := reg.Histogram("bench_probe_seconds", "allocation probe", obs.Latency)
	c := reg.Counter("bench_probe_total", "allocation probe")
	rh := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.ObserveValue(int64(i%1_000_000 + 1))
		}
	})
	rc := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	return []HotpathResult{
		{Name: "obs/histogram-observe", NsPerOp: float64(rh.NsPerOp()),
			AllocsPerOp: float64(rh.AllocsPerOp())},
		{Name: "obs/counter-add", NsPerOp: float64(rc.NsPerOp()),
			AllocsPerOp: float64(rc.AllocsPerOp())},
	}
}

// measureObsSuite runs the full E25 measurement set.
func measureObsSuite() (*ObsSection, error) {
	sec := &ObsSection{}
	for _, instrumented := range []bool{false, true} {
		instrumented := instrumented
		open := func(dir string) (journalWriter, error) {
			opts := bank.JournalOptions{CompactEvery: 1_000_000, Sync: wal.SyncGroup}
			if instrumented {
				opts.Obs = obs.NewRegistry()
			}
			return bank.OpenJournal(dir, bank.NewSharded(0), opts)
		}
		name := fmt.Sprintf("journal/group/%dw/obs-%s", journalBenchWorkers, onOff(instrumented))
		res, err := measureJournalWrites(name, open, journalBenchWorkers, 48)
		if err != nil {
			return nil, err
		}
		sec.Journal = append(sec.Journal, res)
	}
	for _, instrumented := range []bool{false, true} {
		var reg *obs.Registry
		if instrumented {
			reg = obs.NewRegistry()
		}
		res := measureFanOutAllocs(16, 50000, reg)
		res.Name = "fan-out/16-subscribers/obs-" + onOff(instrumented)
		sec.FanOut = append(sec.FanOut, res)
	}
	sec.Allocs = measureObsAllocs()
	return sec, nil
}

// runE25 prints the instrumentation overhead comparison.
func runE25(int64) error {
	sec, err := measureObsSuite()
	if err != nil {
		return err
	}
	fmt.Println("journal write throughput, group-commit, metrics registry off vs on:")
	for _, r := range sec.Journal {
		fmt.Printf("  %-32s %9.0f ops/s (p50 %.3fms p99 %.3fms)\n", r.Name, r.OpsPerSec, r.P50Ms, r.P99Ms)
	}
	if off, on := sec.Journal[0], sec.Journal[1]; off.OpsPerSec > 0 {
		fmt.Printf("  journal obs overhead: %.1f%%\n", 100*(1-on.OpsPerSec/off.OpsPerSec))
	}
	fmt.Println("event fan-out per-delivery cost, metrics registry off vs on:")
	for _, r := range sec.FanOut {
		fmt.Printf("  %-32s %8.0f ns/op %8.2f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	if off, on := sec.FanOut[0], sec.FanOut[1]; off.NsPerOp > 0 {
		fmt.Printf("  fan-out obs overhead: %.1f%%\n", 100*(on.NsPerOp/off.NsPerOp-1))
	}
	fmt.Println("obs record-path allocation probes (must be zero):")
	for _, r := range sec.Allocs {
		fmt.Printf("  %-32s %8.0f ns/op %8.2f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	fmt.Println("expected shape: instrumented throughput within ~5% of uninstrumented on both paths; Observe and Add allocate nothing")
	return nil
}

// writeObs measures the suite and merges it into the baseline file as the
// "obs" section, leaving every other section untouched.
func writeObs(path string) error {
	sec, err := measureObsSuite()
	if err != nil {
		return err
	}
	if err := loadgen.MergeBaseline(path, map[string]any{"obs": sec}); err != nil {
		return err
	}
	fmt.Printf("merged obs section into %s\n", path)
	return nil
}
