// Command examserver runs the on-line exam delivery service: learners take
// exams with a browser against the versioned /v1 HTTP API, SCO content
// talks to the SCORM RTE bridge, administrators watch sessions and author
// banks over the same API (the paper's §5 architecture), and the seed-era
// /api/* routes remain as deprecated aliases. Exams carrying calibrated
// item parameters are additionally served adaptively through the
// /v1/adaptive-sessions routes (one item at a time with online ability
// re-estimation); persisted adaptive sessions are restored on boot. See
// API.md for the endpoint and error-code reference.
//
// Usage:
//
//	examserver -bank bank.json -addr :8080 [-monitor 64]
//	           [-journal DIR] [-fsync group] [-drain 30s]
//	           [-rate 50 -burst 100] [-quiet] [-log-format text|json]
//	           [-slow-request 250ms] [-ops 127.0.0.1:6060]
//	           [-events] [-event-log DIR] [-event-ring 1024]
//	           [-event-log-max-bytes N]
//	           [-trace] [-trace-sample 64] [-trace-retain 256]
//
// With -events (the default) the server runs a live event bus: engines
// publish session/adaptive lifecycle events, a streaming aggregator keeps
// incremental per-exam item statistics, and watchers subscribe over SSE at
// GET /v1/events:stream and GET /v1/exams/{id}/live (with Last-Event-ID
// resume). A resume replays up to -event-ring of the newest events, whole,
// then goes live; older ones are announced by a stream.gap marker. Every
// -event-ring value keeps the ring: below 1 means the default. -event-log
// makes the event stream durable (same fsync policy as the WAL), so the
// resume window survives restarts.
//
// The bank file must already hold at least one exam (see `assessctl seed`).
// With -journal, mutations append to a write-ahead log in DIR instead of
// rewriting the bank file; the bank file seeds the journal on first boot.
// -fsync picks the WAL sync policy: "group" (default) batches concurrent
// writes into one fsync before acknowledging them, and "none" trusts the
// OS page cache (process-crash safe, but a power failure can lose recent
// acknowledged writes). Both
// the WAL and the durable event log hold one JSON object per line; a log
// holding frames of the binary record format that earlier builds offered
// fails to open. -event-log-max-bytes bounds the durable event log by
// rotating the active segment at the threshold (one rotated segment is
// retained; resumes that fall off the retained tail get a stream.gap
// marker instead of silently missing events).
// -rate enables per-learner token-bucket rate limiting (requests/second)
// with -burst capacity. -rate 0 — the default — explicitly disables the
// limiter: no token buckets are allocated and the request edge skips both
// checks, which is the right mode under a load harness (cmd/loadgen)
// where the limiter would throttle the measurement, or behind an upstream
// gateway that already rate-limits.
//
// Access logs are structured (log/slog): -log-format picks text (default)
// or json records and -quiet suppresses them.
//
// -trace turns on request-scoped distributed tracing: every request opens a
// root span (honoring an inbound W3C traceparent header and echoing one on
// the response), engine calls, WAL commits (split into enqueue-wait /
// batch-wait / fsync phases), bus publishes and SSE frame writes become
// child spans, and completed traces are tail-sampled — traces that were
// slow (≥ -slow-request), errored, or suffered an SSE stream.gap are always
// retained, plus one in -trace-sample of the rest. -slow-request D also
// turns tracing on: each request whose root span ran for at least D logs
// one Warn "slow request" line (unless -quiet) carrying its request_id,
// trace_id, retention reason, status, duration and the exclusive
// milliseconds per layer (HTTP edge, engine, WAL commit and its phases,
// bus publish, SSE). The newest -trace-retain retained traces (and a ring
// of recent ones) are browsable at GET /debug/traces on the ops listener
// (list, or ?id= for one span tree; same JSON the `assessctl traces` tree
// view renders), and p99 buckets of the latency histograms carry exemplar
// trace IDs linking /metrics numbers to concrete traces. -ops exposes the
// operations listener on a SEPARATE address (bind it to localhost; the
// main -addr listener never serves it): net/http/pprof profiling handlers under
// /debug/pprof/ plus the process metrics registry as Prometheus text
// exposition at /metrics (journal commit/fsync/compaction, event-bus
// fan-out, live-stats lag, per-route HTTP latency histograms). On
// SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to -drain before exiting, so learners
// mid-answer are not dropped on redeploy.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/httpapi"
	"mineassess/internal/livestats"
	"mineassess/internal/obs"
	"mineassess/internal/scorm"
	"mineassess/internal/trace"
	"mineassess/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal("examserver: ", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("examserver", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file holding problems and exams")
	addr := fs.String("addr", ":8080", "listen address")
	monitorCap := fs.Int("monitor", 64, "snapshots retained per session (0 disables)")
	contentExam := fs.String("content", "", "exam ID to package and serve under /package/ (empty = first exam)")
	readTimeout := fs.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
	writeTimeout := fs.Duration("write-timeout", 10*time.Second, "HTTP write timeout")
	journalDir := fs.String("journal", "", "write-ahead-log directory (empty disables journaling)")
	fsync := fs.String("fsync", string(wal.SyncGroup), "WAL sync policy: group or none (with -journal)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	rate := fs.Float64("rate", 0, "per-learner rate limit in requests/second (0 explicitly disables the limiter)")
	burst := fs.Int("burst", 20, "per-learner rate-limit burst capacity")
	quiet := fs.Bool("quiet", false, "suppress per-request access logging")
	eventsOn := fs.Bool("events", true, "live event bus + SSE streaming endpoints")
	eventLog := fs.String("event-log", "", "durable event-log directory (empty = in-memory replay ring only; fsync policy follows -fsync)")
	eventRing := fs.Int("event-ring", events.DefaultRing, "per-exam event replay-ring size: a Last-Event-ID resume replays up to this many newest events (below 1 = the default; no value disables the ring)")
	eventLogMax := fs.Int64("event-log-max-bytes", 0, "rotate the durable event log when the active segment reaches this size (0 = unbounded; one rotated segment is retained)")
	opsAddr := fs.String("ops", "", "serve the ops listener (pprof + Prometheus /metrics) on this separate address (e.g. 127.0.0.1:6060; empty disables)")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	slowReq := fs.Duration("slow-request", 0, "trace requests and log each taking at least this long at Warn with its per-layer breakdown (0 disables)")
	traceOn := fs.Bool("trace", false, "request-scoped distributed tracing with tail sampling (browse at /debug/traces on the ops listener)")
	traceSample := fs.Int("trace-sample", 64, "with -trace, uniformly retain one in N traces that were not slow/errored/gapped")
	traceRetain := fs.Int("trace-retain", 256, "with -trace, retained-trace ring capacity")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var logHandler slog.Handler
	switch *logFormat {
	case "text":
		logHandler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	syncPolicy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}
	// One process-wide metrics registry feeds every subsystem's counters and
	// histograms into the ops listener's /metrics and the /v1/metrics JSON.
	reg := obs.NewRegistry()
	startTime := time.Now()
	reg.GaugeFunc("process_uptime_seconds",
		"Seconds since the server process started.",
		func() float64 { return time.Since(startTime).Seconds() })
	reg.GaugeFunc("go_goroutines",
		"Live goroutine count.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	store, err := bank.Open(*bankPath, bank.Options{
		Journal: *journalDir,
		Sync:    syncPolicy,
		Obs:     reg,
	})
	if err != nil {
		return err
	}
	if j, ok := store.(*bank.Journal); ok {
		defer func() {
			if cerr := j.CompactError(); cerr != nil {
				log.Printf("examserver: WARNING: journal auto-compaction has been failing: %v", cerr)
			}
			if cerr := j.Close(); cerr != nil {
				log.Printf("examserver: journal close: %v", cerr)
			}
		}()
		log.Printf("examserver: journaling mutations under %s (fsync=%s)", j.Dir(), j.Sync())
	}
	exams := store.ExamIDs()
	if len(exams) == 0 {
		return fmt.Errorf("bank %s holds no exams; seed one with assessctl", *bankPath)
	}
	engine := delivery.NewEngine(store, nil, *monitorCap)
	// The adaptive engine restores any persisted CAT sessions from the
	// bank — with -journal, live adaptive sittings survive a restart.
	cat, err := catdelivery.NewEngine(store, nil, *monitorCap)
	if err != nil {
		return fmt.Errorf("restore adaptive sessions: %w", err)
	}
	if n := cat.SessionCount(); n > 0 {
		log.Printf("examserver: restored %d adaptive session(s)", n)
	}
	if n := cat.RestoreSkipped(); n > 0 {
		log.Printf("examserver: WARNING: skipped %d unrecoverable adaptive session(s) (exam or pool items deleted)", n)
	}
	// The live event bus wires the engines to the SSE endpoints and the
	// streaming statistics aggregator. Emission is fire-and-forget, so an
	// unwatched bus costs the request path almost nothing.
	var bus *events.Bus
	var live *livestats.Aggregator
	if *eventsOn {
		var evlog *events.Log
		if *eventLog != "" {
			// The event log shares the WAL's fsync policy — one durability
			// story for both append-only logs.
			evlog, err = events.OpenLog(*eventLog, events.LogOptions{
				Sync:     syncPolicy,
				MaxBytes: *eventLogMax,
			})
			if err != nil {
				return err
			}
			log.Printf("examserver: durable event log under %s (fsync=%s)", *eventLog, syncPolicy)
		}
		bus = events.NewBus(events.Options{Ring: *eventRing, Log: evlog, Obs: reg})
		live = livestats.NewWith(bus, reg)
		engine.SetEventBus(bus)
		cat.SetEventBus(bus)
		defer func() {
			bus.Close() // flushes the durable log, ends every subscription
			live.Close()
			// A failed event log stops persisting but keeps the live bus
			// running, so its failure is only visible here.
			if evlog != nil {
				if err := evlog.Err(); err != nil {
					log.Printf("examserver: WARNING: durable event log stopped persisting: %v", err)
				}
			}
		}()
	}
	accessLog := slog.New(logHandler)
	if *quiet {
		accessLog = nil
	}
	// The tracer is the slow-request log: it retains the traces it warns
	// about, so each logged trace_id resolves at /debug/traces.
	var tracer *trace.Tracer
	if *traceOn || *slowReq > 0 {
		tracer = trace.New(trace.Options{
			Slow:        *slowReq,
			Logger:      accessLog,
			SampleEvery: *traceSample,
			Retain:      *traceRetain,
			Obs:         reg,
		})
		log.Printf("examserver: tracing enabled (slow=%s sample=1/%d retain=%d)", *slowReq, *traceSample, *traceRetain)
	}
	handler := httpapi.NewServer(engine, store, httpapi.Options{
		Logger:     accessLog,
		Obs:        reg,
		RatePerSec: *rate,
		Burst:      *burst,
		Adaptive:   cat,
		Events:     bus,
		LiveStats:  live,
		Tracer:     tracer,
	})
	if *rate > 0 {
		log.Printf("examserver: per-learner rate limiting at %.1f req/s (burst %d)", *rate, *burst)
	} else {
		log.Printf("examserver: per-learner rate limiting disabled (-rate 0)")
	}
	if *opsAddr != "" {
		// The ops surface gets its own mux on its own listener: the main
		// -addr handler never routes /debug/pprof/ or /metrics, so profiles
		// and raw metric series stay off the learner-facing surface, and an
		// explicit mux avoids leaking whatever else may have registered on
		// http.DefaultServeMux.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/metrics", obs.Handler(reg))
		if tracer != nil {
			// Trace trees stay on the ops surface with the profiles and raw
			// series — never on the learner-facing address.
			mux.Handle("/debug/traces", trace.Handler(tracer))
		}
		go func() {
			log.Printf("examserver: ops listener on http://%s (pprof under /debug/pprof/, Prometheus metrics at /metrics)", *opsAddr)
			if err := http.ListenAndServe(*opsAddr, mux); err != nil {
				log.Printf("examserver: ops listener: %v", err)
			}
		}()
	}

	examID := *contentExam
	if examID == "" {
		examID = exams[0]
	}
	rec, err := store.Exam(examID)
	if err != nil {
		return err
	}
	problems, err := store.Problems(rec.ProblemIDs)
	if err != nil {
		return err
	}
	pkg, err := scorm.BuildPackage(rec, problems)
	if err != nil {
		return err
	}
	handler.MountPackage(pkg)
	log.Printf("examserver: serving SCORM package for exam %q (%d files) under /package/",
		examID, len(pkg.Files))

	srv := &http.Server{
		Addr:         *addr,
		Handler:      handler,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}
	log.Printf("examserver: serving %d problem(s), exams %v on %s",
		store.ProblemCount(), exams, *addr)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		return err
	case got := <-sig:
		log.Printf("examserver: %s received, draining in-flight sessions (up to %s)", got, *drain)
		// SSE connections stay in-flight until their subscription ends, so
		// subscribers must detach before Shutdown or the drain would always
		// run its full timeout waiting on live streams. Only subscribers:
		// the bus keeps accepting publishes, so learner requests completing
		// during the drain still land in the durable event log (the
		// deferred bus.Close flushes it after the drain).
		bus.DetachSubscribers()
		live.Close()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		// Unblock the ListenAndServe goroutine's send.
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Printf("examserver: drained, shutting down")
		return nil
	}
}
