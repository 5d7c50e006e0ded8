package main

// Journaled write-path measurement (experiment E21 and the journal section
// of the -baseline JSON): the group-commit WAL against the design it
// replaced. The baseline here is a faithful re-implementation of the old
// single-writer-lock journal — backend apply, JSON marshal, WAL write and
// (policy permitting) fsync all inside one critical section — so the
// experiment isolates exactly what the group-commit pipeline buys:
// concurrent marshaling and one batched write + fsync per group of
// concurrent writers instead of one per record. The third leg measures the
// subsystem that motivated the change: catdelivery.SubmitResponse persists
// the session record on every CAT answer, so its latency tracks the
// journal's commit latency almost one-to-one.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/item"
	"mineassess/internal/wal"
)

// journalBenchWorkers is the concurrency the acceptance target is defined
// at: group commit must beat the single-lock baseline >= 3x here with the
// default "group" policy.
const journalBenchWorkers = 32

// JournalResult is one measured journal write configuration, serialized
// into the baseline file.
type JournalResult struct {
	Name      string  `json:"name"`
	Workers   int     `json:"workers"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"opsPerSec"`
	// Commit latency quantiles for one journaled write, in milliseconds.
	P50Ms float64 `json:"p50Ms"`
	P99Ms float64 `json:"p99Ms"`
}

// journalWriter is the write path under measurement.
type journalWriter interface {
	AddProblem(p *item.Problem) error
	Close() error
}

// serialWAL reproduces the pre-group-commit journal write path: one mutex
// serializes apply + marshal + write + fsync. With no committer there is
// nothing to coalesce, so the "group" policy degenerates to a per-record
// fsync — exactly why the single-lock design could not afford durability.
type serialWAL struct {
	mu      sync.Mutex
	backend bank.Storage
	f       *os.File
	policy  wal.SyncPolicy
}

func newSerialWAL(dir string, policy wal.SyncPolicy) (*serialWAL, error) {
	f, err := os.OpenFile(dir+"/wal.log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &serialWAL{backend: bank.NewSharded(0), f: f, policy: policy}, nil
}

func (s *serialWAL) AddProblem(p *item.Problem) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.backend.AddProblem(p); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Op      string        `json:"op"`
		Problem *item.Problem `json:"problem"`
	}{"add_problem", p})
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if _, err := s.f.Write(raw); err != nil {
		return err
	}
	if s.policy != wal.SyncNone {
		return s.f.Sync()
	}
	return nil
}

func (s *serialWAL) Close() error { return s.f.Close() }

// benchProblems pre-builds every problem so the timed loop measures only
// the journaled write path.
func benchProblems(workers, perWorker int) ([][]*item.Problem, error) {
	all := make([][]*item.Problem, workers)
	for w := 0; w < workers; w++ {
		all[w] = make([]*item.Problem, perWorker)
		for i := 0; i < perWorker; i++ {
			p, err := item.NewMultipleChoice(fmt.Sprintf("w%02d-q%04d", w, i),
				"journal throughput", []string{"a", "b", "c", "d"}, i%4)
			if err != nil {
				return nil, err
			}
			all[w][i] = p
		}
	}
	return all, nil
}

// quantileMs returns the q-quantile of the latency sample in milliseconds.
func quantileMs(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := int(q * float64(len(lat)-1))
	return float64(lat[idx].Nanoseconds()) / 1e6
}

// measureJournalWrites drives workers concurrent goroutines, each journaling
// perWorker problem inserts, and returns throughput plus per-write commit
// latency quantiles.
func measureJournalWrites(name string, open func(dir string) (journalWriter, error),
	workers, perWorker int) (JournalResult, error) {
	dir, err := os.MkdirTemp("", "benchjournal")
	if err != nil {
		return JournalResult{}, err
	}
	defer os.RemoveAll(dir)
	w, err := open(dir)
	if err != nil {
		return JournalResult{}, err
	}
	defer w.Close()
	problems, err := benchProblems(workers, perWorker)
	if err != nil {
		return JournalResult{}, err
	}
	lats := make([][]time.Duration, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			lats[wk] = make([]time.Duration, 0, perWorker)
			for _, p := range problems[wk] {
				t0 := time.Now()
				if err := w.AddProblem(p); err != nil {
					errs <- err
					return
				}
				lats[wk] = append(lats[wk], time.Since(t0))
			}
		}(wk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return JournalResult{}, err
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	ops := workers * perWorker
	return JournalResult{
		Name:      name,
		Workers:   workers,
		Ops:       ops,
		OpsPerSec: float64(ops) / elapsed.Seconds(),
		P50Ms:     quantileMs(all, 0.50),
		P99Ms:     quantileMs(all, 0.99),
	}, nil
}

// journalConfig is one measured write-path arrangement.
type journalConfig struct {
	name string
	open func(dir string) (journalWriter, error)
}

// journalConfigs enumerates the measured write paths: the single-lock
// baseline and the group-commit journal, each under every sync policy.
func journalConfigs() []journalConfig {
	var cfgs []journalConfig
	for _, policy := range []wal.SyncPolicy{wal.SyncGroup, wal.SyncNone} {
		policy := policy
		cfgs = append(cfgs,
			journalConfig{
				name: "single-lock/" + string(policy),
				open: func(dir string) (journalWriter, error) { return newSerialWAL(dir, policy) },
			},
			journalConfig{
				name: "group-commit/" + string(policy),
				open: func(dir string) (journalWriter, error) {
					return bank.OpenJournal(dir, bank.NewSharded(0), bank.JournalOptions{CompactEvery: 1_000_000, Sync: policy})
				},
			},
		)
	}
	return cfgs
}

// measureCATPersistLatency drives concurrent adaptive sessions over a
// journaled bank and samples SubmitResponse latency — the per-answer
// persist is on this path, so this is the end-to-end cost a learner pays
// per CAT answer once real durability is on.
func measureCATPersistLatency(policy wal.SyncPolicy, workers, sessionsPerWorker int) (JournalResult, error) {
	dir, err := os.MkdirTemp("", "benchcatwal")
	if err != nil {
		return JournalResult{}, err
	}
	defer os.RemoveAll(dir)
	store, err := bank.OpenJournal(dir, bank.NewSharded(0), bank.JournalOptions{CompactEvery: 1_000_000, Sync: policy})
	if err != nil {
		return JournalResult{}, err
	}
	defer store.Close()
	const poolSize = 40
	if err := adaptiveBank(store, "cat", poolSize, 1.8, 3); err != nil {
		return JournalResult{}, err
	}
	rec, err := store.Exam("cat")
	if err != nil {
		return JournalResult{}, err
	}
	eng, err := catdelivery.NewEngine(store, nil, 0)
	if err != nil {
		return JournalResult{}, err
	}
	cfg := catdelivery.Config{MaxItems: 8}
	lats := make([][]time.Duration, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wk)*7919 + 1))
			for sitting := 0; sitting < sessionsPerWorker; sitting++ {
				student := fmt.Sprintf("w%02d-s%03d", wk, sitting)
				truth := rng.NormFloat64()
				s, view, err := eng.Start(context.Background(), "cat", student, cfg, int64(wk*1000+sitting))
				if err != nil {
					errs <- err
					return
				}
				for {
					response := "B"
					if rng.Float64() < rec.ItemParams[view.ProblemID].ProbCorrect(truth) {
						response = "A"
					}
					t0 := time.Now()
					prog, err := eng.SubmitResponse(context.Background(), s.ID, view.ProblemID, response)
					if err != nil {
						errs <- err
						return
					}
					lats[wk] = append(lats[wk], time.Since(t0))
					if prog.Done {
						break
					}
					view = prog.Next
				}
			}
		}(wk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return JournalResult{}, err
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return JournalResult{
		Name:      "cat-submit-response/" + string(policy),
		Workers:   workers,
		Ops:       len(all),
		OpsPerSec: float64(len(all)) / elapsed.Seconds(),
		P50Ms:     quantileMs(all, 0.50),
		P99Ms:     quantileMs(all, 0.99),
	}, nil
}

// measureJournalSuite runs every E21 configuration at the acceptance
// concurrency and returns the results in a stable order.
func measureJournalSuite(perWorker int) ([]JournalResult, error) {
	var results []JournalResult
	for _, cfg := range journalConfigs() {
		res, err := measureJournalWrites(cfg.name, cfg.open, journalBenchWorkers, perWorker)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	cat, err := measureCATPersistLatency(wal.SyncGroup, 8, 2)
	if err != nil {
		return nil, err
	}
	return append(results, cat), nil
}

// runE21 prints the journaled write comparison and the headline ratio.
func runE21(int64) error {
	fmt.Printf("journaled writes, %d concurrent writers (single-lock baseline vs group-commit pipeline):\n",
		journalBenchWorkers)
	results, err := measureJournalSuite(24)
	if err != nil {
		return err
	}
	byName := make(map[string]JournalResult, len(results))
	for _, res := range results {
		byName[res.Name] = res
		fmt.Printf("  %-28s %9.0f ops/s   commit p50 %7.3f ms   p99 %7.3f ms\n",
			res.Name, res.OpsPerSec, res.P50Ms, res.P99Ms)
	}
	serial, group := byName["single-lock/group"], byName["group-commit/group"]
	if serial.OpsPerSec > 0 {
		fmt.Printf("group-commit speedup at fsync-before-ack (policy=group): %.1fx (target >= 3x)\n",
			group.OpsPerSec/serial.OpsPerSec)
	}
	fmt.Println("expected shape: group-commit >= 3x the single-lock baseline under the durable policies, with p99 commit latency bounded by one batch fsync rather than a queue of serial fsyncs")
	return nil
}
