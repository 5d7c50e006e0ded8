package loadgen

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"mineassess/pkg/client"
)

// TestLoadRunSmoke is the hermetic end-to-end harness check: a tiny mixed
// cohort (all three classes) against an in-process server with the WAL and
// the event bus enabled — the full production composition. Every learner
// must complete with zero unexpected errors, watchers must see frames, and
// the -json summary must round-trip.
func TestLoadRunSmoke(t *testing.T) {
	ip, err := StartInProcess(InProcessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()

	mix := Mix{Fixed: 2, CAT: 1, Watch: 1}
	runner, err := NewRunner(Config{
		BaseURL:       ip.URL,
		Bank:          BankConfig{Questions: 4, PoolSize: 20},
		Mix:           mix,
		RatePerSec:    60,
		Soak:          1500 * time.Millisecond,
		Seed:          7,
		WatchDuration: 300 * time.Millisecond,
		MaxItems:      5,
		SLO:           5 * time.Second, // smoke test judges correctness, not speed
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if res.Offered == 0 {
		t.Fatal("no learners offered")
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %d (routes %+v)", res.Errors, res.Routes)
	}
	var started, completed int64
	for class, c := range res.Classes {
		if c.Failed != 0 {
			t.Errorf("class %s: %d failed learners", class, c.Failed)
		}
		started += c.Started
		completed += c.Completed
	}
	if started != int64(res.Offered) {
		t.Errorf("started %d != offered %d", started, res.Offered)
	}
	if completed != started {
		t.Errorf("completed %d != started %d", completed, started)
	}
	// With a mixed cohort all three classes must actually run.
	for _, class := range []string{ClassFixed, ClassCAT, ClassWatch} {
		if res.Classes[class].Started == 0 {
			t.Errorf("class %s never started (mix %+v over %d learners)", class, mix, res.Offered)
		}
	}
	if res.RequestCount == 0 || res.RequestP99Ms <= 0 {
		t.Errorf("request digest empty: count=%d p99=%.2f", res.RequestCount, res.RequestP99Ms)
	}
	// Sittings publish onto the bus, so concurrent watchers must see
	// frames; a healthy in-memory ring never gaps at smoke scale.
	if res.Frames+res.StatsFrames == 0 {
		t.Error("watchers saw no frames despite live sittings")
	}
	if res.Gaps != 0 {
		t.Errorf("stream gaps at smoke scale: %d", res.Gaps)
	}
	if !res.SLOMet {
		t.Errorf("SLO missed: p99 %.2fms, errors %d", res.RequestP99Ms, res.Errors)
	}

	// The -json summary round-trips.
	sec := NewSection(mix, res, nil)
	raw, err := json.Marshal(sec)
	if err != nil {
		t.Fatal(err)
	}
	var back Section
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Run == nil || back.Run.Offered != res.Offered || back.Run.RequestCount != res.RequestCount {
		t.Errorf("section round trip lost data: %+v", back.Run)
	}
	if back.Mix != mix {
		t.Errorf("mix round trip: %+v", back.Mix)
	}
}

// TestEnsureBankIdempotent: seeding the same target twice must succeed and
// return the same exams — reruns against a remote server already seeded by
// a previous run are the normal case.
func TestEnsureBankIdempotent(t *testing.T) {
	ip, err := StartInProcess(InProcessConfig{NoJournal: true, NoEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	c := client.New(ip.URL, client.WithLearnerID("seeder"))
	first, err := EnsureBank(c, BankConfig{Questions: 3, PoolSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	second, err := EnsureBank(c, BankConfig{Questions: 3, PoolSize: 8})
	if err != nil {
		t.Fatalf("second seed: %v", err)
	}
	if first.FixedExamID != second.FixedExamID || first.CATExamID != second.CATExamID {
		t.Error("reseeding changed exam IDs")
	}
	if len(second.FixedOrder) != 3 || len(second.CATParams) != 8 {
		t.Errorf("bank shape: %d fixed items, %d pool items", len(second.FixedOrder), len(second.CATParams))
	}
}

// TestMixNormalization covers the class-draw edge cases.
func TestMixNormalization(t *testing.T) {
	if _, err := (Mix{Fixed: -1}).normalized(); err == nil {
		t.Error("negative weight accepted")
	}
	m, err := (Mix{}).normalized()
	if err != nil || m.Fixed != 1 {
		t.Errorf("zero mix should default to fixed-only, got %+v (%v)", m, err)
	}
	m, _ = (Mix{Fixed: 2, CAT: 1, Watch: 1}).normalized()
	if sum := m.Fixed + m.CAT + m.Watch; sum < 0.999 || sum > 1.001 {
		t.Errorf("normalized weights sum to %v", sum)
	}
}
