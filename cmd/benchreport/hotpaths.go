package main

// Hot-path throughput and allocation benchmarks (experiment E23, the
// -hotpaths baseline section, and the -check-allocs CI guard):
//
//  1. Journal commit throughput under the group-commit committer at the
//     E21 worker count and again at 128 writers, where coalescing
//     amortizes the fsync further.
//  2. Allocations per operation on the three paths the zero-allocation work
//     targeted: journal commit (encode + batch submit), bus publish with
//     fan-out to 1/16/64 subscribers (per-delivery figure — marshal-once
//     plus pump double-buffering must hold it under one allocation), and
//     CAT next-item selection, exact 3PL information vs the precomputed
//     grid at pool sizes 100/1k/10k.
//
// -hotpaths merges these numbers into BENCH_BASELINE.json as a "hotpaths"
// section without regenerating the other sections; -check-allocs re-runs
// the cheap allocation probes and fails when a path regressed more than 20%
// over the recorded baseline.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mineassess/internal/adaptive"
	"mineassess/internal/bank"
	"mineassess/internal/events"
	"mineassess/internal/item"
	"mineassess/internal/obs"
	"mineassess/internal/simulate"
	"mineassess/internal/wal"
)

// HotpathResult is one measured hot path: time and allocations per
// operation. For fan-out entries the operation is one delivery (publisher
// work amortized across subscribers); elsewhere it is one call.
type HotpathResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// HotpathsSection is the "hotpaths" block of BENCH_BASELINE.json.
type HotpathsSection struct {
	// Journal measures group-commit throughput at two writer counts.
	Journal []JournalResult `json:"journal"`
	// Allocs holds the journal-commit and fan-out allocation probes that
	// -check-allocs guards.
	Allocs []HotpathResult `json:"allocs"`
	// NextItem compares exact vs grid-backed CAT item selection per pool
	// size.
	NextItem []HotpathResult `json:"nextItem"`
}

// openGroupJournal is the measureJournalWrites opener for the group-commit
// journal.
func openGroupJournal(dir string) (journalWriter, error) {
	return bank.OpenJournal(dir, bank.NewSharded(0), bank.JournalOptions{
		CompactEvery: 1_000_000,
		Sync:         wal.SyncGroup,
	})
}

// benchProblemSeq hands out globally unique problems across testing.Benchmark
// restarts (the same journal keeps running while b.N ramps).
var benchProblemSeq atomic.Int64

func nextBenchProblems(n int) ([]*item.Problem, error) {
	out := make([]*item.Problem, n)
	for i := range out {
		id := benchProblemSeq.Add(1)
		p, err := item.NewMultipleChoice(fmt.Sprintf("alloc-q%08d", id),
			"alloc probe", []string{"a", "b", "c", "d"}, int(id)%4)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// measureJournalCommitAllocs reports time and allocations per committed
// record under SyncNone (no fsync, so the encode + submit path dominates).
func measureJournalCommitAllocs() (HotpathResult, error) {
	dir, err := os.MkdirTemp("", "benchalloc")
	if err != nil {
		return HotpathResult{}, err
	}
	defer os.RemoveAll(dir)
	j, err := bank.OpenJournal(dir, bank.NewSharded(0), bank.JournalOptions{
		CompactEvery: 10_000_000,
		Sync:         wal.SyncNone,
	})
	if err != nil {
		return HotpathResult{}, err
	}
	defer j.Close()
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.StopTimer()
		probs, err := nextBenchProblems(b.N)
		if err != nil {
			benchErr = err
			b.SkipNow()
			return
		}
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			if err := j.AddProblem(probs[i]); err != nil {
				benchErr = err
				b.SkipNow()
				return
			}
		}
	})
	if benchErr != nil {
		return HotpathResult{}, benchErr
	}
	return HotpathResult{
		Name:        "journal-commit/json",
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
	}, nil
}

// measureFanOutAllocs publishes n events to subs subscribers and reports
// time and heap allocations per delivery, publisher-side work included —
// the honest amortized cost of getting one event into one subscriber's
// hands. testing.Benchmark cannot attribute allocations across the
// publisher and pump goroutines per delivery, so this measures the malloc
// counter around the whole run.
func measureFanOutAllocs(subs, n int, reg *obs.Registry) HotpathResult {
	bus := events.NewBus(events.Options{Ring: -1, Obs: reg})
	defer bus.Close()
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for i := 0; i < subs; i++ {
		sub := bus.Subscribe(events.SubscribeOptions{Buffer: 8192})
		wg.Add(1)
		go func(sub *events.Subscription) {
			defer wg.Done()
			defer sub.Close()
			for e := range sub.Events() {
				if e.ProblemID == "done" {
					return
				}
				if e.Type != events.TypeGap {
					delivered.Add(1)
				}
			}
		}(sub)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		bus.Publish(events.Event{
			Type: events.ResponseSubmitted, ExamID: "alloc",
			SessionID: "sess", ProblemID: "q01", Correct: i%2 == 0,
		})
	}
	bus.Publish(events.Event{Type: events.ResponseSubmitted, ExamID: "alloc", ProblemID: "done"})
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	total := delivered.Load()
	if total == 0 {
		total = 1
	}
	return HotpathResult{
		Name:        fmt.Sprintf("fan-out/%d-subscribers", subs),
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(total),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(total),
	}
}

// hotpathPool builds a diverse 3PL pool for the selection benchmarks.
func hotpathPool(n int, seed int64) []adaptive.PoolItem {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]adaptive.PoolItem, n)
	for i := range pool {
		pool[i] = adaptive.PoolItem{
			ID: fmt.Sprintf("hp-%05d", i),
			Params: simulate.IRTParams{
				A: 0.5 + 1.5*rng.Float64(),
				B: -3.5 + 7*rng.Float64(),
				C: 0.25 * rng.Float64(),
			},
		}
	}
	return pool
}

// selectionThetas is the ability sweep the selection benchmarks cycle
// through, so neither path benefits from a single hot theta.
func selectionThetas() []float64 {
	thetas := make([]float64, 64)
	for i := range thetas {
		thetas[i] = -3.5 + 7*float64(i)/63
	}
	return thetas
}

// measureNextItem benchmarks exact max-information selection against the
// precomputed grid over the same pool, verifying along the way that the two
// agree (grid picks may swap near-exact ties, never a materially weaker
// item).
func measureNextItem(poolSize int) (exact, grid HotpathResult, err error) {
	pool := hotpathPool(poolSize, int64(poolSize))
	g := adaptive.NewDefaultInfoGrid(pool)
	rows := make([]int, len(pool))
	for i := range rows {
		rows[i] = i
	}
	thetas := selectionThetas()
	for _, theta := range thetas {
		best := adaptive.MaxInformation(nil, pool, theta)
		picked := g.ArgMax(rows, theta)
		if diff := pool[best].Params.Information(theta) - pool[picked].Params.Information(theta); diff > 1e-3 {
			return exact, grid, fmt.Errorf("pool %d theta %.3f: grid pick %d is %.6f information below exact best %d",
				poolSize, theta, picked, diff, best)
		}
	}
	sink := 0
	re := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += adaptive.MaxInformation(nil, pool, thetas[i%len(thetas)])
		}
	})
	rg := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += g.ArgMax(rows, thetas[i%len(thetas)])
		}
	})
	_ = sink
	exact = HotpathResult{
		Name:        fmt.Sprintf("next-item/exact/%d", poolSize),
		NsPerOp:     float64(re.NsPerOp()),
		AllocsPerOp: float64(re.AllocsPerOp()),
	}
	grid = HotpathResult{
		Name:        fmt.Sprintf("next-item/grid/%d", poolSize),
		NsPerOp:     float64(rg.NsPerOp()),
		AllocsPerOp: float64(rg.AllocsPerOp()),
	}
	return exact, grid, nil
}

// measureHotpathsSuite runs the full E23 measurement set.
func measureHotpathsSuite() (*HotpathsSection, error) {
	sec := &HotpathsSection{}
	for _, workers := range []int{journalBenchWorkers, 128} {
		name := fmt.Sprintf("group-commit/group/json/%dw", workers)
		res, err := measureJournalWrites(name, openGroupJournal, workers, 48)
		if err != nil {
			return nil, err
		}
		sec.Journal = append(sec.Journal, res)
	}
	res, err := measureJournalCommitAllocs()
	if err != nil {
		return nil, err
	}
	sec.Allocs = append(sec.Allocs, res)
	for _, subs := range []int{1, 16, 64} {
		sec.Allocs = append(sec.Allocs, measureFanOutAllocs(subs, 50000, nil))
	}
	for _, size := range []int{100, 1000, 10000} {
		exact, grid, err := measureNextItem(size)
		if err != nil {
			return nil, err
		}
		sec.NextItem = append(sec.NextItem, exact, grid)
	}
	return sec, nil
}

// runE23 prints the hot-path comparison.
func runE23(int64) error {
	sec, err := measureHotpathsSuite()
	if err != nil {
		return err
	}
	fmt.Println("journal write throughput, group-commit fsync policy:")
	for _, r := range sec.Journal {
		fmt.Printf("  %-36s %9.0f ops/s (p50 %.3fms p99 %.3fms)\n", r.Name, r.OpsPerSec, r.P50Ms, r.P99Ms)
	}
	fmt.Println("allocations per operation (fan-out rows are per delivery):")
	for _, r := range sec.Allocs {
		fmt.Printf("  %-28s %8.0f ns/op %8.2f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	fmt.Println("CAT next-item selection, exact 3PL information vs precomputed grid:")
	for i := 0; i+1 < len(sec.NextItem); i += 2 {
		exact, grid := sec.NextItem[i], sec.NextItem[i+1]
		fmt.Printf("  %-24s %9.0f ns/op  vs  %-22s %8.0f ns/op (%.1fx)\n",
			exact.Name, exact.NsPerOp, grid.Name, grid.NsPerOp, exact.NsPerOp/math.Max(grid.NsPerOp, 1))
	}
	fmt.Println("expected shape: 128 writers beat 32 once fsync amortizes; fan-out stays under 1 alloc per delivery at 64 subscribers; the grid is >=5x exact at the 10k pool")
	return nil
}

// writeHotpaths measures the suite and merges it into the baseline file as
// the "hotpaths" section, leaving every other section untouched (unlike
// -baseline, which regenerates the whole document).
func writeHotpaths(path string) error {
	sec, err := measureHotpathsSuite()
	if err != nil {
		return err
	}
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("existing baseline %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	secRaw, err := json.Marshal(sec)
	if err != nil {
		return err
	}
	doc["hotpaths"] = secRaw
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("merged hotpaths section into %s\n", path)
	return nil
}

// allocSlack is the -check-allocs tolerance: a path fails when its
// measured allocations exceed baseline*1.2 + 0.5. The multiplicative part
// is the contract (no more than 20% regression); the half-allocation
// constant keeps near-zero baselines from failing on scheduler noise while
// still catching a real new allocation on a zero-alloc path.
func allocAllowance(base float64) float64 {
	return base*1.2 + 0.5
}

// checkAllocs re-runs the journal-commit and fan-out allocation probes and
// compares them against the recorded hotpaths baseline, returning an error
// (CI failure) when any path regressed beyond the allowance.
func checkAllocs(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Hotpaths *HotpathsSection `json:"hotpaths"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if doc.Hotpaths == nil || len(doc.Hotpaths.Allocs) == 0 {
		return fmt.Errorf("baseline %s has no hotpaths section; record one with -hotpaths first", path)
	}
	base := make(map[string]float64, len(doc.Hotpaths.Allocs))
	for _, r := range doc.Hotpaths.Allocs {
		base[r.Name] = r.AllocsPerOp
	}
	res, err := measureJournalCommitAllocs()
	if err != nil {
		return err
	}
	current := []HotpathResult{res}
	for _, subs := range []int{1, 16, 64} {
		current = append(current, measureFanOutAllocs(subs, 20000, nil))
	}
	failed := 0
	for _, r := range current {
		want, ok := base[r.Name]
		if !ok {
			fmt.Printf("  %-28s %8.2f allocs/op (no baseline, skipped)\n", r.Name, r.AllocsPerOp)
			continue
		}
		allow := allocAllowance(want)
		status := "ok"
		if r.AllocsPerOp > allow {
			status = "FAIL"
			failed++
		}
		fmt.Printf("  %-28s %8.2f allocs/op (baseline %.2f, allowed %.2f) %s\n",
			r.Name, r.AllocsPerOp, want, allow, status)
	}
	// The obs record paths — and the trace span-record path, which every
	// traced request runs once per span — are pinned to a hard zero rather
	// than compared against a recorded baseline: every instrumented hot
	// path inherits whatever these allocate, so the acceptable number is
	// none.
	for _, r := range append(measureObsAllocs(), measureTraceAllocs()...) {
		allow := allocAllowance(0)
		status := "ok"
		if r.AllocsPerOp > allow {
			status = "FAIL"
			failed++
		}
		fmt.Printf("  %-28s %8.2f allocs/op (pinned zero, allowed %.2f) %s\n",
			r.Name, r.AllocsPerOp, allow, status)
	}
	if failed > 0 {
		return fmt.Errorf("%d hot path(s) regressed beyond the allocation allowance", failed)
	}
	fmt.Println("allocation guard passed")
	return nil
}
