package main

// HTTP-level throughput (experiment E19): the same full-lifecycle learner
// workload as E18, but driven as real HTTP requests through the complete
// /v1 request edge (request ID, recovery, metrics, routing, JSON
// codecs) via the typed SDK, against the direct in-process engine-call
// rate. The gap is the cost of the HTTP contract per operation.

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/delivery"
	"mineassess/internal/httpapi"
	"mineassess/pkg/client"
)

// measureHTTPThroughput runs workers goroutines, each driving its own
// learners through full Start/Answer.../Finish lifecycles over HTTP, and
// returns the aggregate request rate.
func measureHTTPThroughput(workers, sessionsPerWorker, questions int, opts httpapi.Options) (ThroughputResult, error) {
	store := bank.NewSharded(0)
	examID, err := throughputBank(store, questions)
	if err != nil {
		return ThroughputResult{}, err
	}
	eng := delivery.NewShardedEngine(store, nil, 0, delivery.DefaultSessionShards)
	srv := httptest.NewServer(httpapi.NewServer(eng, store, opts))
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sitting := 0; sitting < sessionsPerWorker; sitting++ {
				student := fmt.Sprintf("w%02d-s%03d", w, sitting)
				c := client.New(srv.URL, client.WithLearnerID(student))
				sess, err := c.StartSession(examID, student, int64(w*1000+sitting))
				if err != nil {
					errs <- err
					return
				}
				for _, pid := range sess.Order {
					if err := c.Answer(sess.SessionID, pid, "A"); err != nil {
						errs <- err
						return
					}
				}
				if _, err := c.Finish(sess.SessionID); err != nil {
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
	ops := workers * sessionsPerWorker * (questions + 2)
	return ThroughputResult{
		Name:      "http/v1-edge",
		Workers:   workers,
		Ops:       ops,
		NsPerOp:   float64(elapsed.Nanoseconds()) / float64(ops),
		OpsPerSec: float64(ops) / elapsed.Seconds(),
	}, nil
}

// runE19 prints HTTP-stack requests/sec next to the direct engine-call rate.
func runE19(int64) error {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	fmt.Printf("HTTP delivery vs direct engine calls, %d workers x 10 sessions x 10 questions:\n", workers)
	direct, err := measureThroughput(engineConfig{
		name:          "direct/sharded-engine",
		newStore:      func() bank.Storage { return bank.NewSharded(0) },
		sessionShards: delivery.DefaultSessionShards,
	}, workers, 10, 10)
	if err != nil {
		return err
	}
	// Access logging off (no Logger; it would measure the log writer); rate
	// limiting generous enough to never trip, so the limiter's bookkeeping
	// is still on the measured path.
	httpRes, err := measureHTTPThroughput(workers, 10, 10, httpapi.Options{
		RatePerSec: 1e9, Burst: 1 << 30,
	})
	if err != nil {
		return err
	}
	for _, res := range []ThroughputResult{direct, httpRes} {
		fmt.Printf("  %-34s %9.0f req/s (%7.0f ns/op)\n", res.Name, res.OpsPerSec, res.NsPerOp)
	}
	fmt.Printf("HTTP overhead: %.1fx per operation\n", httpRes.NsPerOp/direct.NsPerOp)
	fmt.Println("expected shape: HTTP adds per-request cost but still scales with workers; no errors")
	return nil
}
