package main

// Live adaptive delivery (experiment E20): the interactive CAT workload
// opened by internal/catdelivery, measured two ways against fixed-form
// delivery on the same bank:
//
//   1. Throughput — concurrent simulated learners drive full adaptive
//      sessions (start, respond loop, auto-finish) through the engine; the
//      fixed-form comparator drives delivery.Engine sessions of the same
//      length. The adaptive path re-estimates EAP theta on every response,
//      so its per-op cost is expectedly higher; what matters is that it
//      still scales with workers.
//   2. Efficiency — items needed to reach a target SE: adaptive sessions
//      stop when the posterior SD crosses the threshold, fixed forms spend
//      the whole form. Fewer items at equal precision is the whole point
//      of the subsystem.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/delivery"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
)

// adaptiveBank authors a calibrated pool: MC items (answer "A") with
// difficulties spread over [-spread, spread].
func adaptiveBank(store bank.Storage, examID string, n int, a, spread float64) error {
	params := make(map[string]simulate.IRTParams, n)
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-q%03d", examID, i+1)
		p, err := item.NewMultipleChoice(id, "adaptive throughput",
			[]string{"a", "b", "c", "d"}, 0)
		if err != nil {
			return err
		}
		if err := store.AddProblem(p); err != nil {
			return err
		}
		b := -spread + 2*spread*float64(i)/float64(n-1)
		params[id] = simulate.IRTParams{A: a, B: b}
		ids = append(ids, id)
	}
	return store.AddExam(&bank.ExamRecord{
		ID: examID, Title: "Adaptive pool", ProblemIDs: ids, ItemParams: params,
	})
}

// driveAdaptive runs one simulated learner through a full adaptive session
// and returns the number of items administered.
func driveAdaptive(eng *catdelivery.Engine, params map[string]simulate.IRTParams,
	examID, student string, truth float64, cfg catdelivery.Config, seed int64) (int, error) {
	s, view, err := eng.Start(context.Background(), examID, student, cfg, seed)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for {
		response := "B"
		if rng.Float64() < params[view.ProblemID].ProbCorrect(truth) {
			response = "A"
		}
		prog, err := eng.SubmitResponse(context.Background(), s.ID, view.ProblemID, response)
		if err != nil {
			return 0, err
		}
		if prog.Done {
			return prog.Administered, nil
		}
		view = prog.Next
	}
}

// measureAdaptiveThroughput drives workers x sessions adaptive sittings and
// returns the aggregate engine-operation rate plus the mean test length.
func measureAdaptiveThroughput(workers, sessionsPerWorker, poolSize int,
	cfg catdelivery.Config) (ThroughputResult, float64, error) {
	store := bank.NewSharded(0)
	if err := adaptiveBank(store, "cat", poolSize, 1.8, 3); err != nil {
		return ThroughputResult{}, 0, err
	}
	rec, err := store.Exam("cat")
	if err != nil {
		return ThroughputResult{}, 0, err
	}
	eng, err := catdelivery.NewEngine(store, nil, 0)
	if err != nil {
		return ThroughputResult{}, 0, err
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	items := make([]int, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 104729))
			for sitting := 0; sitting < sessionsPerWorker; sitting++ {
				student := fmt.Sprintf("w%02d-s%03d", w, sitting)
				n, err := driveAdaptive(eng, rec.ItemParams, "cat", student,
					rng.NormFloat64(), cfg, int64(w*1000+sitting))
				if err != nil {
					errs <- err
					return
				}
				items[w] += n
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return ThroughputResult{}, 0, err
	}
	totalItems := 0
	for _, n := range items {
		totalItems += n
	}
	sessions := workers * sessionsPerWorker
	ops := totalItems + sessions // responses + starts
	return ThroughputResult{
		Name:      "adaptive/cat-engine",
		Workers:   workers,
		Ops:       ops,
		NsPerOp:   float64(elapsed.Nanoseconds()) / float64(ops),
		OpsPerSec: float64(ops) / elapsed.Seconds(),
	}, float64(totalItems) / float64(sessions), nil
}

// runE20 prints adaptive-session throughput next to the fixed-form engine
// rate (E18's workload) and the items-to-target-SE comparison.
func runE20(seed int64) error {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const poolSize = 60
	const targetSE = 0.4

	fmt.Printf("live adaptive vs fixed-form delivery, %d workers x 10 sessions, pool %d:\n",
		workers, poolSize)
	fixed, err := measureThroughput(engineConfig{
		name:          "fixed-form/sharded-engine",
		newStore:      func() bank.Storage { return bank.NewSharded(0) },
		sessionShards: delivery.DefaultSessionShards,
	}, workers, 10, 10)
	if err != nil {
		return err
	}
	adaptiveRes, meanItems, err := measureAdaptiveThroughput(workers, 10, poolSize,
		catdelivery.Config{TargetSE: targetSE, Selector: catdelivery.SelectorRandomesque,
			MaxExposure: 0.5})
	if err != nil {
		return err
	}
	for _, res := range []ThroughputResult{fixed, adaptiveRes} {
		fmt.Printf("  %-34s %9.0f ops/s (%7.0f ns/op)\n", res.Name, res.OpsPerSec, res.NsPerOp)
	}
	fmt.Printf("item-count to SE<=%.2f: adaptive used %.1f items/session vs fixed form %d\n",
		targetSE, meanItems, poolSize)
	fmt.Println("expected shape: adaptive pays EAP re-estimation per response but reaches the SE target in a fraction of the pool; no errors under concurrency")
	_ = seed
	return nil
}
