package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"mineassess/internal/loadgen"
)

// runE24 drives the composed /v1 stack (journal + events enabled) with the
// open-loop load harness: a seconds-scale ramp+soak of mixed virtual
// learners against a hermetic in-process server. It is the smoke-scale
// version of cmd/loadgen — the full capacity ladder lives there.
func runE24(seed int64) error {
	res, _, err := measureLoadgen(seed, e24Mix(), 150, 2*time.Second, 4*time.Second, false)
	if err != nil {
		return err
	}
	loadgen.WriteReport(os.Stdout, res)
	fmt.Println("expected shape: offered rate ~= planned rate (open-loop), zero errors, p99 well under the SLO at smoke scale")
	return nil
}

func e24Mix() loadgen.Mix { return loadgen.Mix{Fixed: 6, CAT: 3, Watch: 1} }

// measureLoadgen boots the hermetic server, runs one ramp+soak and — when
// withCapacity — the capacity ladder, and returns both measurements.
func measureLoadgen(seed int64, mix loadgen.Mix, rate float64, ramp, soak time.Duration, withCapacity bool) (*loadgen.Result, *loadgen.CapacityResult, error) {
	ip, err := loadgen.StartInProcess(loadgen.InProcessConfig{})
	if err != nil {
		return nil, nil, err
	}
	defer ip.Close()
	runner, err := loadgen.NewRunner(loadgen.Config{
		BaseURL:    ip.URL,
		Mix:        mix,
		RatePerSec: rate,
		Ramp:       ramp,
		Soak:       soak,
		Seed:       seed,
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := runner.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	var cr *loadgen.CapacityResult
	if withCapacity {
		cr, err = runner.Capacity(context.Background(), loadgen.CapacityConfig{
			StartRate: 50, Factor: 2, StepDuration: 3 * time.Second, MaxSteps: 6,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return res, cr, nil
}

// writeLoadgen measures the E24 workload (run + capacity ladder) and merges
// the loadgen section into the baseline file — the same section-merge flow
// -hotpaths uses for E23.
func writeLoadgen(path string) error {
	fmt.Fprintln(os.Stderr, "benchreport: measuring E24 load harness (run + capacity ladder)...")
	res, cr, err := measureLoadgen(7, e24Mix(), 200, 3*time.Second, 10*time.Second, true)
	if err != nil {
		return err
	}
	loadgen.WriteReport(os.Stdout, res)
	loadgen.WriteCapacityReport(os.Stdout, cr)
	if err := loadgen.MergeBaseline(path, map[string]any{"loadgen": loadgen.NewSection(e24Mix(), res, cr)}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchreport: merged loadgen section into %s\n", path)
	return nil
}
