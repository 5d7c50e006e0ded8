// Command loadgen drives the full /v1 stack with an open-loop stream of
// IRT-simulated virtual learners: fixed-form sittings, adaptive (CAT)
// sittings and SSE watchers arrive on a Poisson schedule that the server's
// latency cannot slow down, so measured tails are honest (no coordinated
// omission). It reports per-route latency digests, error rates, watcher
// stream accounting, and — with -capacity — the maximum sustained arrival
// rate that still meets the p99 SLO.
//
// With no -addr the harness boots a hermetic in-process server (journal +
// events enabled, the same composition cmd/examserver serves). CI runs it
// that way at smoke scale:
//
//	loadgen -rate 150 -ramp 2s -soak 4s
//
// and the command exits non-zero when the run misses its SLO (p99 over
// -slo, or any error). Point -addr at a running examserver to load a real
// deployment; start that server with -rate 0 so its per-learner limiter
// does not throttle the harness.
//
// Usage:
//
//	loadgen [-rate 200] [-ramp 5s] [-soak 15s] [-mix 6,3,1] [-seed 7]
//	        [-addr http://host:8080] [-capacity] [-json] [-trace]
//
// -trace (hermetic mode only) mounts a tail-sampling tracer on the target
// and, after the run, prints a per-phase latency attribution table — how the
// p50/p99 milliseconds split across the HTTP edge, the delivery engines, the
// WAL commit (enqueue-wait / batch-wait / fsync) and bus publishes — built
// from the retained slow/error/gap traces plus the recent-completion ring.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mineassess/internal/loadgen"
	"mineassess/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "", "target server base URL; empty boots a hermetic in-process server")
	rate := fs.Float64("rate", 100, "soak arrival rate, virtual learners per second")
	ramp := fs.Duration("ramp", 5*time.Second, "ramp phase duration (rate/10 -> rate); 0 skips the ramp")
	soak := fs.Duration("soak", 15*time.Second, "soak phase duration at the full rate")
	mixSpec := fs.String("mix", "6,3,1", "workload mix weights fixed,cat,watch")
	seed := fs.Int64("seed", 7, "seed for arrivals, class draws and learner abilities")
	think := fs.Duration("think", 0, "mean think time between answers (exponentially jittered); 0 answers back-to-back")
	slo := fs.Duration("slo", 250*time.Millisecond, "p99 latency objective for the closing verdict")
	conns := fs.Int("conns", 1024, "connection-pool size of the shared tuned transport")
	watch := fs.Duration("watch", 2*time.Second, "how long each SSE watcher stays subscribed")
	capacity := fs.Bool("capacity", false, "run the capacity ladder instead of a single ramp+soak run")
	capStart := fs.Float64("cap-start", 25, "capacity ladder: first step's arrival rate")
	capFactor := fs.Float64("cap-factor", 2, "capacity ladder: rate multiplier between steps")
	capStep := fs.Duration("cap-step", 5*time.Second, "capacity ladder: soak length per step")
	capSteps := fs.Int("cap-steps", 6, "capacity ladder: maximum number of steps")
	traceOn := fs.Bool("trace", false, "trace the hermetic target and print per-phase latency attribution (HTTP/engine/WAL/bus) after the run")
	jsonOut := fs.Bool("json", false, "print the run summary as JSON instead of the human report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := *addr
	var tracer *trace.Tracer
	if base == "" {
		ip, err := loadgen.StartInProcess(loadgen.InProcessConfig{Trace: *traceOn, TraceSlow: *slo})
		if err != nil {
			return err
		}
		defer ip.Close()
		base = ip.URL
		fmt.Fprintf(os.Stderr, "loadgen: hermetic in-process server at %s (journal + events enabled)\n", base)
		tracer = ip.Tracer
	} else if *traceOn {
		// Attribution reads the tracer's in-memory sinks directly; a remote
		// target's sinks live in its process (inspect via assessctl traces).
		return fmt.Errorf("-trace needs the hermetic in-process target (drop -addr)")
	}

	runner, err := loadgen.NewRunner(loadgen.Config{
		BaseURL:        base,
		Mix:            mix,
		RatePerSec:     *rate,
		Ramp:           *ramp,
		Soak:           *soak,
		Seed:           *seed,
		Think:          *think,
		SLO:            *slo,
		TransportConns: *conns,
		WatchDuration:  *watch,
	})
	if err != nil {
		return err
	}

	var res *loadgen.Result
	var cr *loadgen.CapacityResult
	if *capacity {
		cr, err = runner.Capacity(ctx, loadgen.CapacityConfig{
			StartRate:    *capStart,
			Factor:       *capFactor,
			StepDuration: *capStep,
			MaxSteps:     *capSteps,
		})
		if err != nil {
			return err
		}
	} else {
		res, err = runner.Run(ctx)
		if err != nil {
			return err
		}
	}

	sec := loadgen.NewSection(mix, res, cr)
	if *jsonOut {
		raw, err := json.MarshalIndent(sec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
	} else {
		if res != nil {
			loadgen.WriteReport(os.Stdout, res)
		}
		if cr != nil {
			loadgen.WriteCapacityReport(os.Stdout, cr)
		}
	}
	if tracer != nil {
		// The tail sampler's retained set skews toward the ladder's final
		// (knee-busting) steps by construction — slow and gap traces are
		// exactly the ones retention guarantees — so the table attributes
		// the latency at the capacity knee, not the easy early steps.
		rep := loadgen.BuildTraceReport(tracer.Retained(), tracer.Recent())
		loadgen.WriteTraceReport(os.Stdout, rep)
	}
	if res != nil && !res.SLOMet {
		return fmt.Errorf("SLO missed: p99 %.2fms > %.0fms or %d errors", res.RequestP99Ms, res.SLOMs, res.Errors)
	}
	return nil
}

// parseMix reads "fixed,cat,watch" weights (e.g. "6,3,1"); trailing weights
// may be omitted.
func parseMix(spec string) (loadgen.Mix, error) {
	parts := strings.Split(spec, ",")
	if len(parts) > 3 {
		return loadgen.Mix{}, fmt.Errorf("mix %q: want at most fixed,cat,watch", spec)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || v < 0 {
			return loadgen.Mix{}, fmt.Errorf("mix %q: bad weight %q", spec, p)
		}
		vals[i] = v
	}
	return loadgen.Mix{Fixed: vals[0], CAT: vals[1], Watch: vals[2]}, nil
}
