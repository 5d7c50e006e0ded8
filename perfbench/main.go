// Command perfbench is the repository benchmark. It runs examserver as a
// separate process (journal on with the default fsync policy, -rate 0,
// -quiet, ops listener on loopback), drives one workload against it from
// this process, checks the outputs, and prints each metric with its unit,
// then one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// makes an untraced pass and a traced pass (tracedserver: the same service
// with span-recording decorators) and reports the per-layer metrics, the
// trace's reconciliation and the tracing overhead. See README.md for the
// workloads, the layers each loads, and which end-to-end metric every
// per-layer metric should move.
//
// Usage (run.sh builds the binaries first):
//
//	perfbench -workload fixed-live|adaptive-wal|teacher-report -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times an untraced run sets up; setup_s is the
// median, and the last set-up's server serves the window.
const setupRuns = 3

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "fixed-live, adaptive-wal or teacher-report")
	seed := fs.Int64("seed", 1, "workload seed: the bank, the learners and the arrival schedule derive from it")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	traceOn := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	bin := fs.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the examserver and tracedserver binaries")
	work := fs.String("work", ".bench_build", "directory for the servers' journals and logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	window := time.Duration(*seconds) * time.Second
	setups := setupRuns
	if *traceOn == 1 {
		setups = 1
	}
	plain, err := newPass(w, *seed, window, filepath.Join(*bin, "examserver"), filepath.Join(dir, "plain"), false)
	if err == nil {
		err = plain.run(ctx, setups)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	var traced *pass
	if *traceOn == 1 {
		traced, err = newPass(w, *seed, window, filepath.Join(*bin, "tracedserver"), filepath.Join(dir, "traced"), true)
		if err == nil {
			err = traced.run(ctx, 1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced pass: %v\n", w.name, err)
			return 1
		}
	}
	res := emit(plain, traced, *seed)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints the run's metadata and every metric by name and unit, and
// returns the result line: end-to-end metrics for an untraced run,
// per-layer metrics for a traced one.
func emit(plain, traced *pass, seed int64) result {
	e := plain.endToEnd()
	health := plain.health()
	fmt.Printf("workload %s  seed %d  window %s  nproc %d  gomaxprocs generator %d server %d  %s\n",
		plain.w.name, seed, plain.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), plain.procs, runtime.Version())
	fmt.Printf("generator: cpu %.2f cores, timer lateness p99 %.3f ms, limited the load: %v\n",
		health.genCPU, health.timerLateP99, health.limited)
	e.print(plain.w, "")
	res := result{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	for _, p := range []*pass{plain, traced} {
		if p == nil {
			continue
		}
		att, failed, probs := p.outcome()
		res.Attempted += att
		res.Failed += failed
		problems = append(problems, probs...)
	}
	if traced == nil {
		for k, v := range e.metrics() {
			res.Metrics[k] = v
		}
	} else {
		te := traced.endToEnd()
		te.print(traced.w, "traced ")
		layers, probs := perLayer(plain, traced)
		problems = append(problems, probs...)
		layers["trace.overhead_p50_pct"] = metric{pct(te.op.P50, e.op.P50), "%"}
		layers["trace.overhead_tail_pct"] = metric{pct(te.op.Tail, e.op.Tail), "%"}
		layers["trace.overhead_cpu_pct"] = metric{pct(te.serverCPU, e.serverCPU), "%"}
		names := make([]string, 0, len(layers))
		for k := range layers {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-36s %12.4f %s\n", k, layers[k].Value, layers[k].Unit)
		}
		res.Metrics = layers
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.Correct = len(problems) == 0
	fmt.Printf("attempted %d, failed %d, correctness checks passed %d, correct %v\n",
		res.Attempted, res.Failed, plain.checks.passed, res.Correct)
	return res
}

func pct(v, base float64) float64 { return 100 * ratio(v-base, base) }
