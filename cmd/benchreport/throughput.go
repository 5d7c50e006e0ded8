package main

// Delivery-engine throughput measurement (experiment E18 and the -baseline
// JSON): drives concurrent learner sessions through the engine over both
// the single-shard configuration (a conservative contention baseline — one
// shard lock serializes lookups, though per-session locks still apply, so
// the old single exclusive engine mutex was strictly worse) and the sharded
// session registry, so the scaling win of per-session locks is tracked PR
// over PR in BENCH_BASELINE.json.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/delivery"
	"mineassess/internal/item"
	"mineassess/internal/loadgen"
)

// throughputBank authors a small unlimited-time exam for engine driving.
func throughputBank(store bank.Storage, questions int) (string, error) {
	var ids []string
	for i := 0; i < questions; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%02d", i+1), "throughput",
			[]string{"a", "b", "c", "d"}, i%4)
		if err != nil {
			return "", err
		}
		if err := store.AddProblem(p); err != nil {
			return "", err
		}
		ids = append(ids, p.ID)
	}
	draft := authoring.NewExamDraft("tp", "Throughput exam")
	if err := draft.Add(ids...); err != nil {
		return "", err
	}
	rec, err := draft.Finalize(store)
	if err != nil {
		return "", err
	}
	if err := store.AddExam(rec); err != nil {
		return "", err
	}
	return rec.ID, nil
}

// engineConfig is one measured engine arrangement.
type engineConfig struct {
	name          string
	newStore      func() bank.Storage
	sessionShards int
}

func throughputConfigs() []engineConfig {
	return []engineConfig{
		{"1-shard-store/1-shard-engine", func() bank.Storage { return bank.New() }, 1},
		{"sharded-store/sharded-engine", func() bank.Storage { return bank.NewSharded(0) }, delivery.DefaultSessionShards},
	}
}

// ThroughputResult is one measured configuration, serialized into the
// baseline file.
type ThroughputResult struct {
	Name      string  `json:"name"`
	Workers   int     `json:"workers"`
	Ops       int     `json:"ops"`
	NsPerOp   float64 `json:"nsPerOp"`
	OpsPerSec float64 `json:"opsPerSec"`
}

// measureThroughput runs workers goroutines, each driving its own learners
// through full Start/Answer.../Finish session lifecycles, and returns the
// aggregate engine-operation rate.
func measureThroughput(cfg engineConfig, workers, sessionsPerWorker, questions int) (ThroughputResult, error) {
	store := cfg.newStore()
	examID, err := throughputBank(store, questions)
	if err != nil {
		return ThroughputResult{}, err
	}
	eng := delivery.NewShardedEngine(store, nil, 0, cfg.sessionShards)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sitting := 0; sitting < sessionsPerWorker; sitting++ {
				student := fmt.Sprintf("w%02d-s%03d", w, sitting)
				sess, err := eng.Start(context.Background(), examID, student, int64(w*1000+sitting))
				if err != nil {
					errs <- err
					return
				}
				for _, pid := range sess.Order {
					if err := eng.Answer(context.Background(), sess.ID, pid, "A"); err != nil {
						errs <- err
						return
					}
				}
				if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return ThroughputResult{}, err
	}
	// Ops = every engine call a learner made.
	ops := workers * sessionsPerWorker * (questions + 2)
	return ThroughputResult{
		Name:      cfg.name,
		Workers:   workers,
		Ops:       ops,
		NsPerOp:   float64(elapsed.Nanoseconds()) / float64(ops),
		OpsPerSec: float64(ops) / elapsed.Seconds(),
	}, nil
}

// runE18 prints the throughput comparison.
func runE18(int64) error {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	fmt.Printf("concurrent exam delivery, %d workers x 20 sessions x 10 questions:\n", workers)
	for _, cfg := range throughputConfigs() {
		res, err := measureThroughput(cfg, workers, 20, 10)
		if err != nil {
			return err
		}
		fmt.Printf("  %-34s %9.0f ops/s (%7.0f ns/op)\n", res.Name, res.OpsPerSec, res.NsPerOp)
	}
	fmt.Println("expected shape: the sharded engine meets or beats the 1-shard baseline, and scales with GOMAXPROCS")
	return nil
}

// writeBaseline measures every engine configuration (E18), the E21
// write-path suite (single-lock baseline vs group-commit per sync policy,
// plus the CAT SubmitResponse persist latency) and the E22 bus suite
// (fan-out per subscriber count, engine with the bus disabled / unwatched
// / subscribed), and merges them into the baseline file at path, leaving
// its other sections untouched, so future PRs can diff the perf
// trajectory.
func writeBaseline(path string) error {
	// At least 4 workers so the lock structure is exercised even on small
	// machines, and enough sittings per worker to average out scheduler
	// noise.
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var results []ThroughputResult
	for _, cfg := range throughputConfigs() {
		res, err := measureThroughput(cfg, workers, 200, 10)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	journal, err := measureJournalSuite(48)
	if err != nil {
		return err
	}
	ev, err := measureEventsSuite()
	if err != nil {
		return err
	}
	if err := loadgen.MergeBaseline(path, map[string]any{
		"goVersion":  runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"results":    results,
		"journal":    journal,
		"events":     ev,
	}); err != nil {
		return err
	}
	fmt.Printf("merged throughput, journal and events sections into %s\n", path)
	return nil
}
