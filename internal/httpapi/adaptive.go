package httpapi

// Live adaptive (CAT) delivery over HTTP: one-item-at-a-time sessions with
// online ability re-estimation, surfaced as /v1/adaptive-sessions
// resources, plus the administrator's recalibration verb on exams. The
// engine lives in internal/catdelivery; every handler here is a thin
// decode/dispatch/encode shell over it, with errors classified through the
// shared taxonomy.
//
//	POST /v1/adaptive-sessions              start on a calibrated exam
//	GET  /v1/adaptive-sessions/{id}         session status (theta, SE, state)
//	GET  /v1/adaptive-sessions/{id}/next    the pending item (re-fetchable)
//	POST /v1/adaptive-sessions/{id}:respond answer the pending item
//	POST /v1/adaptive-sessions/{id}:finish  close early / fetch the outcome
//	GET  /v1/adaptive-sessions/{id}/monitor captured snapshots
//	POST /v1/exams/{id}:recalibrate         fold logged responses into params

import (
	"net/http"
	"strings"

	"mineassess/internal/catdelivery"
	"mineassess/pkg/api"
)

// adaptiveEnabled writes the disabled-feature envelope when the server was
// built without an adaptive engine.
func (s *Server) adaptiveEnabled(w http.ResponseWriter) bool {
	if s.cat == nil {
		writeErr(w, &Error{Code: CodeNotFound, Message: "adaptive delivery is not enabled"})
		return false
	}
	return true
}

// handleAdaptiveRoot serves POST /v1/adaptive-sessions.
func (s *Server) handleAdaptiveRoot(w http.ResponseWriter, r *http.Request) {
	if !s.adaptiveEnabled(w) {
		return
	}
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req StartAdaptiveSessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ExamID == "" {
		badRequest(w, "missing exam ID")
		return
	}
	sess, first, err := s.cat.Start(r.Context(), req.ExamID, req.StudentID, req.AdaptiveConfig, req.Seed)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, StartAdaptiveSessionResponse{
		SessionID: sess.ID,
		MaxItems:  first.MaxItems,
		Next:      first,
	})
}

// handleAdaptivePurge serves POST /v1/adaptive-sessions:purge — the
// administrator's retention pass over finished sessions.
func (s *Server) handleAdaptivePurge(w http.ResponseWriter, r *http.Request) {
	if !s.adaptiveEnabled(w) {
		return
	}
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	n, err := s.cat.PurgeFinished()
	if err != nil {
		writeError(w, err)
		return
	}
	// The same pass also releases idle live-statistics aggregates — the two
	// retention sweeps share one administrative endpoint.
	writeJSON(w, http.StatusOK, PurgeAdaptiveSessionsResponse{
		Purged:      n,
		StatsPurged: s.live.PurgeIdle(),
	})
}

// handleAdaptiveSessions routes /v1/adaptive-sessions/{id}[:verb|/next|/monitor].
func (s *Server) handleAdaptiveSessions(w http.ResponseWriter, r *http.Request) {
	if !s.adaptiveEnabled(w) {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/adaptive-sessions/")
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
		s.adaptiveAction(w, r, id, verb)
	case sub == "":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		st, err := s.cat.Status(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case sub == "next":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		view, err := s.cat.NextItem(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, view)
	case sub == "monitor":
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		if !s.cat.HasSession(id) {
			writeError(w, catdelivery.ErrSessionNotFound)
			return
		}
		writeJSON(w, http.StatusOK, s.cat.Monitor().Snapshots(id))
	default:
		notFoundRoute(w, r.URL.Path)
	}
}

// adaptiveAction dispatches the :respond/:finish verbs.
func (s *Server) adaptiveAction(w http.ResponseWriter, r *http.Request, id, verb string) {
	switch verb {
	case "respond":
		var req AnswerRequest
		if !decodeBody(w, r, &req) {
			return
		}
		prog, err := s.cat.SubmitResponse(r.Context(), id, req.ProblemID, req.Response)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, prog)
	case "finish":
		out, err := s.cat.Finish(r.Context(), id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	default:
		writeErr(w, &Error{Code: CodeNotFound, Message: "unknown adaptive session action " + verb})
	}
}

// recalibrateExam implements POST /v1/exams/{id}:recalibrate — the
// calibration feedback loop's write-back, exposed to administrators.
func (s *Server) recalibrateExam(w http.ResponseWriter, r *http.Request, examID string) {
	if !s.adaptiveEnabled(w) {
		return
	}
	// The body is optional: an empty POST uses the default minimum.
	req := RecalibrateRequest{}
	if r.ContentLength != 0 {
		if !decodeBody(w, r, &req) {
			return
		}
	}
	if req.MinObservations < 0 {
		badRequest(w, "minObservations must not be negative")
		return
	}
	cal, err := s.cat.Recalibrate(examID, req.MinObservations)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := RecalibrateResponse{
		Updated:      cal.Updated,
		Skipped:      cal.Skipped,
		Observations: cal.Observations,
	}
	if resp.Updated == nil {
		resp.Updated = map[string]api.IRTParams{} // JSON {} for empty, never null
	}
	writeJSON(w, http.StatusOK, resp)
}
