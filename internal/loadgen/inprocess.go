package loadgen

import (
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/httpapi"
	"mineassess/internal/livestats"
	"mineassess/internal/obs"
	"mineassess/internal/trace"
	"mineassess/internal/wal"
)

// InProcessConfig shapes the hermetic target server. The defaults match a
// production examserver: sharded backend, group-commit WAL, live event bus
// with streaming statistics, rate limiting off (a load harness measuring
// its own token bucket would be measuring the wrong thing — run capacity
// tests with -rate 0 on real servers too).
type InProcessConfig struct {
	// NoJournal runs on the bare sharded store instead of the group-commit
	// WAL in a temp dir (removed on Close).
	NoJournal bool
	// NoEvents disables the bus + SSE endpoints (watch mixes then 404).
	NoEvents bool
	// Trace mounts a tail-sampling tracer on the HTTP edge so a capacity
	// run can attribute latency to pipeline phases afterwards (see
	// TraceReport); it keeps 1 in 16 unremarkable traces. TraceSlow is the
	// slow-trace retention threshold (default 250ms — match the run's SLO
	// so "slow" means "SLO-busting").
	Trace     bool
	TraceSlow time.Duration
}

// InProcess is a fully wired hermetic server: request edge, engines, WAL,
// bus, livestats, SSE — the same composition cmd/examserver serves, minus
// the listener flags. Tests and CI drive it through URL.
type InProcess struct {
	URL string
	// Obs is the target's process metrics registry (journal, bus, live
	// stats, per-route HTTP histograms) — capacity runs exercise the same
	// instrumented composition production serves, and tests can scrape it.
	Obs *obs.Registry
	// Tracer is non-nil when InProcessConfig.Trace asked for one; after a
	// run its retained + recent trace trees feed BuildTraceReport.
	Tracer *trace.Tracer

	srv     *httptest.Server
	store   bank.Storage
	bus     *events.Bus
	live    *livestats.Aggregator
	tempDir string
}

// StartInProcess boots the hermetic target.
func StartInProcess(cfg InProcessConfig) (*InProcess, error) {
	ip := &InProcess{Obs: obs.NewRegistry()}
	if cfg.NoJournal {
		ip.store = bank.NewSharded(0)
	} else {
		dir, err := os.MkdirTemp("", "loadgen-wal")
		if err != nil {
			return nil, err
		}
		ip.tempDir = dir
		j, err := bank.OpenJournal(dir, bank.NewSharded(0), bank.JournalOptions{Sync: wal.SyncGroup, Obs: ip.Obs})
		if err != nil {
			ip.cleanup()
			return nil, fmt.Errorf("loadgen: open journal: %w", err)
		}
		ip.store = j
	}

	engine := delivery.NewShardedEngine(ip.store, nil, 0, delivery.DefaultSessionShards)
	cat, err := catdelivery.NewEngine(ip.store, nil, 0)
	if err != nil {
		ip.cleanup()
		return nil, fmt.Errorf("loadgen: adaptive engine: %w", err)
	}
	opts := httpapi.Options{Adaptive: cat, Obs: ip.Obs}
	if cfg.Trace {
		slow := cfg.TraceSlow
		if slow <= 0 {
			slow = 250 * time.Millisecond
		}
		// A wide recent ring keeps an unbiased picture of ordinary requests
		// alongside the tail sampler's slow/error/gap captures — the phase
		// attribution report wants both populations.
		ip.Tracer = trace.New(trace.Options{
			Slow: slow, SampleEvery: 16,
			Recent: 256, Retain: 512, Obs: ip.Obs,
		})
		opts.Tracer = ip.Tracer
	}
	if !cfg.NoEvents {
		ip.bus = events.NewBus(events.Options{Obs: ip.Obs})
		ip.live = livestats.NewWith(ip.bus, ip.Obs)
		engine.SetEventBus(ip.bus)
		cat.SetEventBus(ip.bus)
		opts.Events = ip.bus
		opts.LiveStats = ip.live
	}
	ip.srv = httptest.NewServer(httpapi.NewServer(engine, ip.store, opts))
	ip.URL = ip.srv.URL
	return ip, nil
}

// Close tears the server down: SSE subscribers detach first so in-flight
// streams end, then the listener closes, then the WAL and bus flush.
func (ip *InProcess) Close() {
	if ip.bus != nil {
		ip.bus.DetachSubscribers()
	}
	if ip.srv != nil {
		ip.srv.Close()
	}
	ip.cleanup()
}

func (ip *InProcess) cleanup() {
	if ip.bus != nil {
		ip.bus.Close()
		ip.bus = nil
	}
	if ip.live != nil {
		ip.live.Close()
		ip.live = nil
	}
	if j, ok := ip.store.(*bank.Journal); ok {
		_ = j.Close()
		ip.store = nil
	}
	if ip.tempDir != "" {
		_ = os.RemoveAll(ip.tempDir)
		ip.tempDir = ""
	}
}
