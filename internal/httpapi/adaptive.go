package httpapi

// Live adaptive (CAT) delivery over HTTP: one-item-at-a-time sessions with
// online ability re-estimation, surfaced as /v1/adaptive-sessions
// resources, plus the administrator's recalibration verb on exams (their
// rows are in Server.table). The engine lives in internal/catdelivery;
// every endpoint here is a thin decode/call/encode shell over it, with
// errors classified through the shared taxonomy.

import (
	"net/http"

	"mineassess/pkg/api"
)

// startAdaptive serves POST /v1/adaptive-sessions.
func (s *Server) startAdaptive(w http.ResponseWriter, r *http.Request, _ string) {
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

// purgeAdaptive serves POST /v1/adaptive-sessions:purge — the
// administrator's retention pass over finished sessions.
func (s *Server) purgeAdaptive(w http.ResponseWriter, _ *http.Request, _ string) {
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

func (s *Server) respondAdaptive(w http.ResponseWriter, r *http.Request, id string) {
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
}

func (s *Server) finishAdaptive(w http.ResponseWriter, r *http.Request, id string) {
	out, err := s.cat.Finish(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// recalibrateExam implements POST /v1/exams/{id}:recalibrate — the
// calibration feedback loop's write-back, exposed to administrators.
func (s *Server) recalibrateExam(w http.ResponseWriter, r *http.Request, examID string) {
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
