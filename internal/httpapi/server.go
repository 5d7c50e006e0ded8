// Package httpapi is the versioned HTTP surface of the LMS (§5: learners,
// SCOs and administrators all speak HTTP to the assessment service). It
// exposes the resource-oriented /v1 API — session delivery, monitoring, the
// SCORM RTE bridge, problem/exam authoring CRUD and blueprint assembly — on
// top of the delivery engine and a bank.Storage, plus thin deprecated
// aliases for the seed-era /api/* routes so existing SCO content keeps
// working.
//
// Every non-2xx response carries the typed error envelope of errors.go
// ({code, message, details}); the middleware chain adds request IDs,
// structured access logging, panic recovery, per-learner token-bucket rate
// limiting, and an in-process metrics registry exported at /v1/metrics.
//
// Route map (see API.md for the full reference):
//
//	POST   /v1/exams/{id}/sessions     start a session
//	GET    /v1/exams/{id}/sessions     list session summaries (admin)
//	GET    /v1/sessions/{id}           session status
//	POST   /v1/sessions/{id}:answer    record a response
//	POST   /v1/sessions/{id}:pause     pause
//	POST   /v1/sessions/{id}:resume    resume
//	POST   /v1/sessions/{id}:finish    finish and grade
//	GET    /v1/sessions/{id}/monitor   captured snapshots
//	POST   /v1/sessions/{id}/rte       SCORM RTE bridge
//	POST   /v1/adaptive-sessions       start a live adaptive (CAT) session
//	GET    /v1/adaptive-sessions/{id}  adaptive session status
//	GET    /v1/adaptive-sessions/{id}/next     pending item
//	POST   /v1/adaptive-sessions/{id}:respond  answer the pending item
//	POST   /v1/adaptive-sessions/{id}:finish   close / fetch the outcome
//	GET    /v1/adaptive-sessions/{id}/monitor  captured snapshots
//	POST   /v1/exams/{id}:recalibrate  fold logged responses into params
//	GET    /v1/problems                search problems
//	POST   /v1/problems                create a problem
//	GET    /v1/problems/{id}           fetch a problem
//	PUT    /v1/problems/{id}           update a problem
//	DELETE /v1/problems/{id}           delete a problem
//	GET    /v1/exams                   list exam IDs
//	POST   /v1/exams                   create an exam
//	POST   /v1/exams:assemble          blueprint-driven assembly
//	GET    /v1/exams/{id}              fetch an exam record
//	DELETE /v1/exams/{id}              delete an exam
//	GET    /v1/exams/{id}/grades       manual-grading worklist
//	POST   /v1/grades                  assign manual credit
//	GET    /v1/exams/{id}/results      export the response matrix
//	GET    /v1/exams/{id}/live         SSE: exam events + live item stats
//	GET    /v1/events:stream           SSE: every event on the bus
//	GET    /v1/metrics                 metrics snapshot
//	GET    /package/...                mounted SCORM package files
package httpapi

import (
	"encoding/json"
	"log/slog"
	"mime"
	"net/http"
	"path"
	"strings"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/livestats"
	"mineassess/internal/obs"
	"mineassess/internal/scorm"
	"mineassess/internal/trace"
)

// Options configures the server's middleware stack and optional subsystems.
type Options struct {
	// Logger receives structured access-log and panic records; nil
	// disables logging. Slow requests are logged by the Tracer.
	Logger *slog.Logger
	// Obs, when set, publishes the per-route latency histograms and
	// process counters through the shared registry (Prometheus exposition
	// on the ops listener) and appends every subsystem sample to the
	// /v1/metrics JSON body.
	Obs *obs.Registry
	// RatePerSec is the per-learner token-bucket refill rate; <= 0 disables
	// rate limiting.
	RatePerSec float64
	// Burst is the per-learner bucket capacity (minimum 1 when limiting).
	Burst int
	// Now is the rate limiter's clock; nil means wall-clock time.
	Now func() time.Time
	// Adaptive enables the /v1/adaptive-sessions routes and the
	// exams:recalibrate verb; nil leaves them answering a typed 404.
	Adaptive *catdelivery.Engine
	// Events enables the SSE endpoints (/v1/events:stream and
	// /v1/exams/{id}/live); nil leaves them answering a typed 404. The
	// server only subscribes — wiring the engines to publish onto the bus
	// is the caller's job (SetEventBus).
	Events *events.Bus
	// LiveStats, when set with Events, interleaves incremental item
	// statistics ("stats" frames) into /v1/exams/{id}/live streams.
	LiveStats *livestats.Aggregator
	// StreamHeartbeat is the SSE keep-alive comment interval; 0 means 15s.
	StreamHeartbeat time.Duration
	// Tracer, when set, opens a root span per request (W3C traceparent
	// ingestion/emission), threads it through the engine calls, tail-samples
	// completed traces and logs the slow ones (see internal/trace). Nil
	// disables tracing with zero per-request cost.
	Tracer *trace.Tracer
}

// Server is the LMS HTTP front end. Build with NewServer; it implements
// http.Handler.
type Server struct {
	engine    *delivery.Engine
	cat       *catdelivery.Engine
	store     bank.Storage
	bus       *events.Bus
	live      *livestats.Aggregator
	heartbeat time.Duration
	metrics   *Metrics
	mux       *http.ServeMux
	handler   http.Handler
	// pkg, when mounted, is the SCORM content package served under
	// /package/ so launched SCOs load straight from the LMS.
	pkg *scorm.Package
}

var _ http.Handler = (*Server)(nil)

// NewServer wires the engine and bank behind the /v1 router, the legacy
// aliases, and the middleware chain.
func NewServer(engine *delivery.Engine, store bank.Storage, o Options) *Server {
	s := &Server{
		engine:    engine,
		cat:       o.Adaptive,
		store:     store,
		bus:       o.Events,
		live:      o.LiveStats,
		heartbeat: o.StreamHeartbeat,
		metrics:   NewMetricsWith(o.Obs),
		mux:       http.NewServeMux(),
	}
	s.routes()
	// The per-learner bucket shapes individual traffic; the per-IP bucket
	// (ipAggregateFactor times the learner rate) caps what any one address
	// can push regardless of the client-controlled X-Learner-ID header. The
	// chain runs RequestID outermost so the recovery and access-log lines
	// carry the ID, and Recover inside AccessLog so a panic is logged as
	// the 500 it produced.
	burst := o.Burst
	if burst < 1 {
		burst = 1 // clamp before multiplying so the IP bucket keeps its 16x headroom
	}
	perLearner := NewRateLimiter(o.RatePerSec, burst, o.Now)
	perIP := NewRateLimiter(o.RatePerSec*ipAggregateFactor, burst*ipAggregateFactor, o.Now)
	// Trace sits just inside RequestID so the root span's context carries
	// the request ID (Detach preserves both), and outside AccessLog so the
	// access-logged duration is what the root span records.
	s.handler = Chain(
		RequestID(),
		Trace(o.Tracer),
		AccessLog(o.Logger),
		Recover(o.Logger, func() { s.metrics.panics.Inc() }),
		RateLimit(perLearner, perIP, func() { s.metrics.rateLimited.Inc() }),
	)(s.mux)
	return s
}

// ipAggregateFactor is the per-IP rate ceiling as a multiple of the
// per-learner rate: a NAT'd classroom gets this many learners' worth of
// aggregate headroom per address, while a header-spoofing client is still
// bounded.
const ipAggregateFactor = 16

// Metrics exposes the server's metrics registry (benchmarks and tests).
func (s *Server) Metrics() *Metrics {
	return s.metrics
}

// MountPackage exposes a SCORM package's files under /package/. Call before
// serving; the launch URL for a resource is "/package/" + resource href.
func (s *Server) MountPackage(pkg *scorm.Package) {
	s.pkg = pkg
}

// ServeHTTP implements http.Handler through the middleware chain.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// route registers a handler under a metrics label equal to its pattern.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.metrics.instrument(pattern, h))
}

func (s *Server) routes() {
	// v1 resources.
	s.route("/v1/sessions/", s.handleSessions)
	s.route("/v1/adaptive-sessions", s.handleAdaptiveRoot)
	s.route("/v1/adaptive-sessions:purge", s.handleAdaptivePurge)
	s.route("/v1/adaptive-sessions/", s.handleAdaptiveSessions)
	s.route("/v1/problems", s.handleProblemsRoot)
	s.route("/v1/problems/", s.handleProblemByID)
	s.route("/v1/exams", s.handleExamsRoot)
	s.route("/v1/exams:assemble", s.handleAssemble)
	s.route("/v1/exams/", s.handleExamByID)
	s.route("/v1/grades", s.handleGrades)
	s.route("/v1/metrics", s.handleMetrics)
	s.route("/v1/events:stream", s.handleEventStream)

	// Deprecated seed-era aliases, kept so existing SCO content and scripts
	// keep working; they call the same cores as the /v1 routes and return
	// identical bodies.
	s.route("/api/session/start", s.legacyStart)
	s.route("/api/session/", s.legacySession)
	s.route("/api/monitor/", s.legacyMonitor)
	s.route("/api/rte/", s.legacyRTE)
	s.route("/api/admin/sessions", s.legacyAdminSessions)
	s.route("/api/admin/grades", s.legacyAdminGrades)
	s.route("/api/admin/results", s.legacyAdminResults)

	// Mounted SCORM content.
	s.route("/package/", s.handlePackage)

	// Everything else is a typed 404 (no stdlib plain-text not-found).
	s.route("/", func(w http.ResponseWriter, r *http.Request) {
		notFoundRoute(w, r.URL.Path)
	})
}

// decodeBody parses a JSON request body, bounding it so a runaway client
// cannot exhaust memory. It writes the 400 envelope itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		badRequest(w, "malformed JSON request body")
		return false
	}
	return true
}

// --- Session delivery ---

// handleSessions routes /v1/sessions/{id}[:verb|/monitor|/rte].
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	seg, sub, _ := strings.Cut(rest, "/")
	id, verb, hasVerb := strings.Cut(seg, ":")
	if id == "" {
		badRequest(w, "missing session ID")
		return
	}
	switch {
	case hasVerb:
		if sub != "" {
			notFoundRoute(w, r.URL.Path)
			return
		}
		if r.Method != http.MethodPost {
			methodNotAllowed(w, http.MethodPost)
			return
		}
		s.sessionAction(w, r, id, verb)
	case sub == "":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		s.getStatus(w, id)
	case sub == "monitor":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		s.getMonitor(w, id)
	case sub == "rte":
		if r.Method != http.MethodPost {
			methodNotAllowed(w, http.MethodPost)
			return
		}
		s.postRTE(w, r, id)
	default:
		notFoundRoute(w, r.URL.Path)
	}
}

// sessionAction dispatches the :answer/:pause/:resume/:finish verbs.
func (s *Server) sessionAction(w http.ResponseWriter, r *http.Request, id, verb string) {
	switch verb {
	case "answer":
		var req AnswerRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := s.engine.Answer(r.Context(), id, req.ProblemID, req.Response); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ActionResponse{Status: "recorded"})
	case "pause":
		if err := s.engine.Pause(id); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ActionResponse{Status: "paused"})
	case "resume":
		if err := s.engine.Resume(id); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ActionResponse{Status: "running"})
	case "finish":
		res, err := s.engine.Finish(r.Context(), id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	default:
		writeErr(w, &Error{Code: CodeNotFound, Message: "unknown session action " + verb})
	}
}

// startSession opens a session. The v1 route supplies examID from the URL;
// the legacy alias passes "" and the exam ID comes from the body. Unknown
// exams are 404 EXAM_NOT_FOUND, not a generic 400 — clients must be able to
// tell a typo'd exam ID from a malformed request.
func (s *Server) startSession(w http.ResponseWriter, r *http.Request, examID string) {
	var req StartSessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if examID == "" {
		examID = req.ExamID
	}
	if examID == "" {
		badRequest(w, "missing exam ID")
		return
	}
	sess, err := s.engine.Start(r.Context(), examID, req.StudentID, req.Seed)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, StartSessionResponse{SessionID: sess.ID, Order: sess.Order})
}

func (s *Server) getStatus(w http.ResponseWriter, id string) {
	st, err := s.engine.Status(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// getMonitor returns the session's captured snapshots. Nonexistent sessions
// are a 404 envelope, not an empty 200 — the registry is checked before the
// monitor rings are read.
func (s *Server) getMonitor(w http.ResponseWriter, id string) {
	if !s.engine.HasSession(id) {
		writeError(w, delivery.ErrSessionNotFound)
		return
	}
	writeJSON(w, http.StatusOK, s.engine.Monitor().Snapshots(id))
}

// postRTE bridges the SCORM API over HTTP for SCO content.
func (s *Server) postRTE(w http.ResponseWriter, r *http.Request, id string) {
	var req RTERequest
	if !decodeBody(w, r, &req) {
		return
	}
	var resp RTEResponse
	known := true
	// RTEExec holds the session lock so SCO traffic cannot race the
	// learner's Answer/Pause/Finish writes into the same CMI data model.
	err := s.engine.RTEExec(id, func(api *scorm.API) {
		switch strings.ToLower(req.Method) {
		case "getvalue":
			resp.Result = api.LMSGetValue(req.Element)
		case "setvalue":
			resp.Result = api.LMSSetValue(req.Element, req.Value)
		case "commit":
			resp.Result = api.LMSCommit("")
		case "geterrorstring":
			resp.Result = api.LMSGetErrorString(req.Value)
		default:
			known = false
			return
		}
		resp.LastError = api.LMSGetLastError()
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if !known {
		badRequest(w, "unknown RTE method %s", req.Method)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- Admin / metrics / package ---

// listSessions is the administrator's monitor view of one exam's sessions.
// The exam is looked up first so a typo'd ID is a 404, not an empty list.
func (s *Server) listSessions(w http.ResponseWriter, examID string) {
	if _, err := s.store.Exam(examID); err != nil {
		writeError(w, err)
		return
	}
	sums := s.engine.SessionSummaries(examID)
	if sums == nil {
		sums = []delivery.Status{} // JSON [] for empty, never null
	}
	writeJSON(w, http.StatusOK, sums)
}

// listGrades serves the manual-grading worklist for one exam.
func (s *Server) listGrades(w http.ResponseWriter, examID string) {
	if _, err := s.store.Exam(examID); err != nil {
		writeError(w, err)
		return
	}
	pending := s.engine.PendingGrades(examID)
	if pending == nil {
		pending = []delivery.PendingGrade{} // JSON [] for empty, never null
	}
	writeJSON(w, http.StatusOK, pending)
}

// assignGrade records an instructor's manual credit.
func (s *Server) assignGrade(w http.ResponseWriter, r *http.Request) {
	var req GradeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.engine.AssignGrade(req.SessionID, req.ProblemID, req.Credit); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ActionResponse{Status: "graded"})
}

// exportResults exports the exam's collected response matrix in the
// analysis package's JSON format.
func (s *Server) exportResults(w http.ResponseWriter, examID string) {
	res, err := s.engine.CollectResults(examID)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleGrades(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	s.assignGrade(w, r)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// contentTypeOverrides pins types that vary across OS mime tables (or that
// stdlib tables miss), so package serving is deterministic everywhere;
// anything else falls through to mime.TypeByExtension.
var contentTypeOverrides = map[string]string{
	".html":  "text/html; charset=utf-8",
	".xml":   "application/xml",
	".js":    "text/javascript",
	".css":   "text/css",
	".json":  "application/json",
	".svg":   "image/svg+xml",
	".woff2": "font/woff2",
}

// handlePackage serves mounted SCORM package files.
func (s *Server) handlePackage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	if s.pkg == nil {
		writeErr(w, &Error{Code: CodeNotFound, Message: "no package mounted"})
		return
	}
	file := strings.TrimPrefix(r.URL.Path, "/package/")
	data, ok := s.pkg.Files[file]
	if !ok {
		writeErr(w, &Error{Code: CodeNotFound, Message: "no such file " + file})
		return
	}
	ext := path.Ext(file)
	ct, pinned := contentTypeOverrides[ext]
	if !pinned {
		ct = mime.TypeByExtension(ext)
	}
	if ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
