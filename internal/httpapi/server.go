// Package httpapi is the versioned HTTP surface of the LMS (§5: learners,
// SCOs and administrators all speak HTTP to the assessment service). It
// exposes the resource-oriented /v1 API — session delivery, monitoring, the
// SCORM RTE bridge, problem/exam authoring CRUD and blueprint assembly — on
// top of the delivery engine and a bank.Storage, plus thin deprecated
// aliases for the seed-era /api/* routes so existing SCO content keeps
// working.
//
// Every non-2xx response carries the typed error envelope of errors.go
// ({code, message, details}). One request edge (Server.ServeHTTP, edge.go)
// assigns request IDs, opens the root span, applies the per-learner and
// per-IP token buckets and recovers panics, and it records each request
// once: one status and one duration feed the route's series in the
// metrics registry (exported at /v1/metrics), the access log and the root
// span.
//
// Every endpoint is one row of the route table in Server.table (route.go
// describes the patterns and how a request is matched); API.md is the
// full reference.
package httpapi

import (
	"encoding/json"
	"log/slog"
	"mime"
	"net/http"
	"path"
	"strings"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/livestats"
	"mineassess/internal/obs"
	"mineassess/internal/scorm"
	"mineassess/internal/trace"
)

// Options configures the server's request edge and optional subsystems.
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
	metrics   *Metrics
	routes    []route
	unmatched *routeStats
	// The request edge's logger, tracer and token buckets (edge.go).
	logger     *slog.Logger
	tracer     *trace.Tracer
	perLearner *RateLimiter
	perIP      *RateLimiter
	// pkg, when mounted, is the SCORM content package served under
	// /package/ so launched SCOs load straight from the LMS.
	pkg *scorm.Package
}

var _ http.Handler = (*Server)(nil)

// NewServer wires the engine and bank behind the route table and the
// request edge.
func NewServer(engine *delivery.Engine, store bank.Storage, o Options) *Server {
	s := newEdge(o)
	s.engine, s.store = engine, store
	s.cat, s.bus, s.live = o.Adaptive, o.Events, o.LiveStats
	s.compile(s.table())
	return s
}

// Metrics exposes the server's metrics registry (benchmarks and tests).
func (s *Server) Metrics() *Metrics {
	return s.metrics
}

// MountPackage exposes a SCORM package's files under /package/. Call before
// serving; the launch URL for a resource is "/package/" + resource href.
func (s *Server) MountPackage(pkg *scorm.Package) {
	s.pkg = pkg
}

// table lists every endpoint the server answers. Patterns are tried in
// this order (see route.go): each resource's verb rows precede its plain
// {id} row, so "x:answer" reaches the verb while an exam ID that merely
// contains a colon ("fall:2026", legal before checkResourceID) still
// resolves as {id}. Adaptive and streaming rows answer a typed 404 when
// their subsystem is not configured.
func (s *Server) table() []row {
	adaptive := enabled(s.cat != nil, "adaptive delivery is not enabled")
	streaming := enabled(s.bus != nil, "event streaming is not enabled on this server")
	return []row{
		// Session delivery.
		{"POST", "/v1/exams/{id}/sessions", s.startSession},
		{"GET", "/v1/exams/{id}/sessions", s.listSessions},
		{"POST", "/v1/sessions/{id}:answer", s.answer},
		{"POST", "/v1/sessions/{id}:pause", s.pause},
		{"POST", "/v1/sessions/{id}:resume", s.resume},
		{"POST", "/v1/sessions/{id}:finish", s.finish},
		{"POST", "/v1/sessions/{id}:{verb}", unknownVerb("unknown session action ")},
		{"GET", "/v1/sessions/{id}", getJSON(s.engine.Status)},
		{"GET", "/v1/sessions/{id}/monitor", getJSON(s.engine.Snapshots)},
		{"POST", "/v1/sessions/{id}/rte", s.postRTE},

		// Live adaptive (CAT) delivery and recalibration (adaptive.go).
		{"POST", "/v1/adaptive-sessions", adaptive(s.startAdaptive)},
		{"POST", "/v1/adaptive-sessions:purge", adaptive(s.purgeAdaptive)},
		{"POST", "/v1/adaptive-sessions/{id}:respond", adaptive(s.respondAdaptive)},
		{"POST", "/v1/adaptive-sessions/{id}:finish", adaptive(s.finishAdaptive)},
		{"POST", "/v1/adaptive-sessions/{id}:{verb}", adaptive(unknownVerb("unknown adaptive session action "))},
		{"GET", "/v1/adaptive-sessions/{id}", adaptive(getJSON(s.cat.Status))},
		{"GET", "/v1/adaptive-sessions/{id}/next", adaptive(getJSON(s.cat.NextItem))},
		{"GET", "/v1/adaptive-sessions/{id}/monitor", adaptive(getJSON(s.cat.Snapshots))},
		{"POST", "/v1/exams/{id}:recalibrate", adaptive(s.recalibrateExam)},

		// Authoring (authoring.go).
		{"GET", "/v1/problems", s.listProblems},
		{"POST", "/v1/problems", s.createProblem},
		{"GET", "/v1/problems/{id}", getJSON(s.store.Problem)},
		{"PUT", "/v1/problems/{id}", s.updateProblem},
		{"DELETE", "/v1/problems/{id}", s.deleteProblem},
		{"GET", "/v1/exams", s.listExams},
		{"POST", "/v1/exams", s.createExam},
		{"POST", "/v1/exams:assemble", s.assembleExam},
		{"GET", "/v1/exams/{id}", getJSON(s.store.Exam)},
		{"DELETE", "/v1/exams/{id}", s.deleteExam},

		// Administration, metrics and live streams (stream.go).
		{"GET", "/v1/exams/{id}/grades", s.listGrades},
		{"POST", "/v1/grades", s.assignGrade},
		{"GET", "/v1/exams/{id}/results", s.exportResults},
		{"GET", "/v1/metrics", s.getMetrics},
		{"GET", "/v1/exams/{id}/live", streaming(s.examLive)},
		{"GET", "/v1/events:stream", streaming(s.eventStream)},

		// Mounted SCORM content.
		{"GET", "/package/{file...}", s.packageFile},

		// Deprecated seed-era aliases, kept because already-packaged SCO
		// content calls them: each serves the same endpoint as its /v1
		// counterpart, so bodies and error envelopes are identical. The
		// session start takes the exam from the body, the admin routes
		// from ?exam=.
		{"POST", "/api/session/start", s.startSession},
		{"GET", "/api/session/{id}", getJSON(s.engine.Status)},
		{"POST", "/api/session/{id}/answer", s.answer},
		{"POST", "/api/session/{id}/pause", s.pause},
		{"POST", "/api/session/{id}/resume", s.resume},
		{"POST", "/api/session/{id}/finish", s.finish},
		{"GET", "/api/monitor/{id}", getJSON(s.engine.Snapshots)},
		{"POST", "/api/rte/{id}", s.postRTE},
		{"GET", "/api/admin/sessions", examParam(s.listSessions)},
		{"GET", "/api/admin/grades", examParam(s.listGrades)},
		{"POST", "/api/admin/grades", s.assignGrade},
		{"GET", "/api/admin/results", examParam(s.exportResults)},
	}
}

// enabled returns a row decorator: with on false, the row answers a typed
// 404 carrying msg instead of its endpoint.
func enabled(on bool, msg string) func(endpoint) endpoint {
	return func(ep endpoint) endpoint {
		if on {
			return ep
		}
		return func(w http.ResponseWriter, _ *http.Request, _ string) {
			writeErr(w, &Error{Code: CodeNotFound, Message: msg})
		}
	}
}

// getJSON serves a GET whose body is what fetch returns for the captured
// ID (a session's status, a problem, an exam's results, ...).
func getJSON[T any](fetch func(id string) (T, error)) endpoint {
	return func(w http.ResponseWriter, _ *http.Request, id string) {
		v, err := fetch(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
}

// unknownVerb serves a resource's {id}:{verb} row: a verb no earlier row
// named is a typed 404.
func unknownVerb(prefix string) endpoint {
	return func(w http.ResponseWriter, _ *http.Request, verb string) {
		writeErr(w, &Error{Code: CodeNotFound, Message: prefix + verb})
	}
}

// examParam adapts an exam-scoped endpoint to the legacy admin routes,
// which name the exam in the ?exam= parameter.
func examParam(ep endpoint) endpoint {
	return func(w http.ResponseWriter, r *http.Request, _ string) {
		examID := r.URL.Query().Get("exam")
		if examID == "" {
			badRequest(w, "missing exam parameter")
			return
		}
		ep(w, r, examID)
	}
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

func (s *Server) answer(w http.ResponseWriter, r *http.Request, id string) {
	var req AnswerRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.engine.Answer(r.Context(), id, req.ProblemID, req.Response); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ActionResponse{Status: "recorded"})
}

func (s *Server) pause(w http.ResponseWriter, _ *http.Request, id string) {
	if err := s.engine.Pause(id); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ActionResponse{Status: "paused"})
}

func (s *Server) resume(w http.ResponseWriter, _ *http.Request, id string) {
	if err := s.engine.Resume(id); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ActionResponse{Status: "running"})
}

func (s *Server) finish(w http.ResponseWriter, r *http.Request, id string) {
	res, err := s.engine.Finish(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// startSession opens a session. The v1 route supplies examID from the URL;
// on the legacy alias it is "" and the exam ID comes from the body. Unknown
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
	writeJSON(w, http.StatusOK, StartSessionResponse{
		SessionID: sess.ID, Order: sess.Order, Options: sess.PresentedOptions(),
	})
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
func (s *Server) listSessions(w http.ResponseWriter, _ *http.Request, examID string) {
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

// exportResults serves an exam's results export. analysis.EncodeResult
// writes it one student at a time, so the body goes out chunked and no
// buffer holds the whole export; its bytes are writeJSON's.
func (s *Server) exportResults(w http.ResponseWriter, _ *http.Request, examID string) {
	res, err := s.engine.CollectResults(examID)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = analysis.EncodeResult(w, res)
}

// listGrades serves the manual-grading worklist for one exam.
func (s *Server) listGrades(w http.ResponseWriter, _ *http.Request, examID string) {
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
func (s *Server) assignGrade(w http.ResponseWriter, r *http.Request, _ string) {
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

func (s *Server) getMetrics(w http.ResponseWriter, _ *http.Request, _ string) {
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

// packageFile serves one file of the mounted SCORM package.
func (s *Server) packageFile(w http.ResponseWriter, _ *http.Request, file string) {
	if s.pkg == nil {
		writeErr(w, &Error{Code: CodeNotFound, Message: "no package mounted"})
		return
	}
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
