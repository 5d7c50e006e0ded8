// Command tracedserver is examserver with benchmark spans: it wires the
// service from the same constructors and defaults cmd/examserver uses
// (journaled sharded bank, sharded delivery engine, adaptive engine, event
// bus and live statistics, httpapi middleware chain), then wraps the
// http.Handler and the bank.Storage in decorators that record one span per
// request and per bank call. Spans stay in memory and are served as JSON at
// GET /spans on the ops listener, beside the Prometheus /metrics and the
// pprof profiles.
//
// Usage (the flags mirror examserver's):
//
//	tracedserver -bank seed.json -journal DIR -addr 127.0.0.1:8080 -ops 127.0.0.1:6060 [-rate 0 -quiet]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/httpapi"
	"mineassess/internal/item"
	"mineassess/internal/livestats"
	"mineassess/internal/obs"
	"mineassess/internal/scorm"
	"mineassess/perfbench/internal/span"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal("tracedserver: ", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracedserver", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file seeding the journal on first boot")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	opsAddr := fs.String("ops", "", "ops listener address (/metrics and /spans)")
	journalDir := fs.String("journal", "", "write-ahead-log directory (default fsync policy)")
	// Accepted so one launch line serves both servers; the limiter and the
	// access log stay off, as examserver runs them under the benchmark.
	_ = fs.Float64("rate", 0, "ignored: rate limiting stays off")
	_ = fs.Bool("quiet", true, "ignored: access logging stays off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *journalDir == "" || *opsAddr == "" {
		return errors.New("-journal and -ops are required")
	}
	reg := obs.NewRegistry()
	inner, err := bank.Open(*bankPath, bank.Options{
		Backend: "sharded",
		Shards:  bank.DefaultShards,
		Journal: *journalDir,
		Obs:     reg,
	})
	if err != nil {
		return err
	}
	if j, ok := inner.(*bank.Journal); ok {
		defer j.Close()
	}
	rec := &span.Recorder{}
	active := &requests{}
	store := &tracedStore{Storage: inner, rec: rec, active: active}

	engine := delivery.NewShardedEngine(store, nil, 64, delivery.DefaultSessionShards)
	cat, err := catdelivery.NewEngine(store, nil, 64)
	if err != nil {
		return fmt.Errorf("restore adaptive sessions: %w", err)
	}
	bus := events.NewBus(events.Options{Ring: events.DefaultRing, Obs: reg})
	live := livestats.NewWith(bus, reg)
	engine.SetEventBus(bus)
	cat.SetEventBus(bus)
	defer func() {
		bus.Close()
		live.Close()
	}()
	api := httpapi.NewServer(engine, store, httpapi.Options{
		Obs:       reg,
		Burst:     20,
		Adaptive:  cat,
		Events:    bus,
		LiveStats: live,
	})
	exams := inner.ExamIDs()
	if len(exams) == 0 {
		return fmt.Errorf("bank %s holds no exams", *bankPath)
	}
	examRec, err := inner.Exam(exams[0])
	if err != nil {
		return err
	}
	problems, err := inner.Problems(examRec.ProblemIDs)
	if err != nil {
		return err
	}
	pkg, err := scorm.BuildPackage(examRec, problems)
	if err != nil {
		return err
	}
	api.MountPackage(pkg)

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.Handle("/metrics", obs.Handler(reg))
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rec.Spans())
	})
	opsSrv := &http.Server{Addr: *opsAddr, Handler: mux}
	go func() {
		if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("tracedserver: ops listener: %v", err)
		}
	}()
	defer opsSrv.Close()

	srv := &http.Server{
		Addr:         *addr,
		Handler:      &tracedHandler{next: api, rec: rec, active: active},
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		return err
	case <-sig:
		bus.DetachSubscribers()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// requests maps the goroutine serving a traced request to its request ID,
// so bank calls that carry no context still join their request's trace.
// Handlers call the bank on their own goroutine, so the mapping is exact.
type requests struct{ m sync.Map }

func (r *requests) id() string {
	if v, ok := r.m.Load(goid()); ok {
		return v.(string)
	}
	return ""
}

// goid parses the current goroutine's ID from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// tracedHandler records one "handler" span per request that carries an
// X-Request-ID, around the whole httpapi.Server (middleware included).
type tracedHandler struct {
	next   http.Handler
	rec    *span.Recorder
	active *requests
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	g := goid()
	h.active.m.Store(g, id)
	defer h.active.m.Delete(g)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.Add("handler", id, start)
}

// tracedStore records "bank.read" spans around Exam and Problems and
// "bank.write" spans around the mutations the benchmark drives. It forwards
// the context-aware writes the engines look for, so they keep their normal
// path into the journal.
type tracedStore struct {
	bank.Storage
	rec    *span.Recorder
	active *requests
}

func (s *tracedStore) record(name, id string, start time.Time) {
	if id != "" {
		s.rec.Add(name, id, start)
	}
}

func (s *tracedStore) Exam(id string) (*bank.ExamRecord, error) {
	req, start := s.active.id(), time.Now()
	e, err := s.Storage.Exam(id)
	s.record("bank.read", req, start)
	return e, err
}

func (s *tracedStore) Problems(ids []string) ([]*item.Problem, error) {
	req, start := s.active.id(), time.Now()
	ps, err := s.Storage.Problems(ids)
	s.record("bank.read", req, start)
	return ps, err
}

func (s *tracedStore) AddExam(e *bank.ExamRecord) error {
	req, start := s.active.id(), time.Now()
	err := s.Storage.AddExam(e)
	s.record("bank.write", req, start)
	return err
}

func (s *tracedStore) AddProblem(p *item.Problem) error {
	return s.AddProblemCtx(context.Background(), p)
}

func (s *tracedStore) AddProblemCtx(ctx context.Context, p *item.Problem) error {
	req, start := requestID(ctx, s.active), time.Now()
	var err error
	if a, ok := s.Storage.(interface {
		AddProblemCtx(context.Context, *item.Problem) error
	}); ok {
		err = a.AddProblemCtx(ctx, p)
	} else {
		err = s.Storage.AddProblem(p)
	}
	s.record("bank.write", req, start)
	return err
}

func (s *tracedStore) PutAdaptiveSession(rec *bank.AdaptiveSessionRecord) error {
	return s.PutAdaptiveSessionCtx(context.Background(), rec)
}

func (s *tracedStore) PutAdaptiveSessionCtx(ctx context.Context, rec *bank.AdaptiveSessionRecord) error {
	req, start := requestID(ctx, s.active), time.Now()
	var err error
	if p, ok := s.Storage.(interface {
		PutAdaptiveSessionCtx(context.Context, *bank.AdaptiveSessionRecord) error
	}); ok {
		err = p.PutAdaptiveSessionCtx(ctx, rec)
	} else {
		err = s.Storage.PutAdaptiveSession(rec)
	}
	s.record("bank.write", req, start)
	return err
}

// requestID prefers the ID the RequestID middleware put on the context.
func requestID(ctx context.Context, active *requests) string {
	if id := obs.RequestIDFrom(ctx); id != "" {
		return id
	}
	return active.id()
}
