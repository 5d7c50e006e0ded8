package httpapi

// Authoring over HTTP: the paper's authoring system (§5.3-§5.4) as v1
// resources — problem CRUD with search, exam CRUD, and blueprint-driven
// assembly — so banks are maintained through the API, not only the
// assessctl CLI.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

// checkResourceID rejects IDs the path router cannot address: an ID
// containing '/' would be created fine by the bank but could never be
// fetched, updated, or deleted through /v1/problems/{id} or
// /v1/exams/{id} (URL paths arrive percent-decoded, so %2F is no escape
// hatch), and ':' is the colon-verb separator (an exam named "x:recalibrate"
// would shadow the verb). It writes the 400 envelope itself on failure.
func checkResourceID(w http.ResponseWriter, id string) bool {
	if strings.ContainsAny(id, "/:") {
		writeErr(w, &Error{Code: CodeValidation,
			Message: fmt.Sprintf("id %q must not contain '/' or ':'", id)})
		return false
	}
	return true
}

// writeAuthoringError maps store mutation failures: sentinel errors keep
// their taxonomy codes, and a closed journal stays the server fault it is;
// anything else from the bank layer is a validation failure of the
// submitted payload.
func writeAuthoringError(w http.ResponseWriter, err error) {
	e := FromError(err)
	if e.Code == CodeInternal && !errors.Is(err, bank.ErrJournalClosed) {
		e = &Error{Code: CodeValidation, Message: err.Error()}
	}
	writeErr(w, e)
}

// --- Problems ---

// parseQuery builds a bank.Query from GET /v1/problems parameters.
func parseQuery(r *http.Request) (bank.Query, error) {
	v := r.URL.Query()
	q := bank.Query{
		Subject:   v.Get("subject"),
		Keyword:   v.Get("keyword"),
		ConceptID: v.Get("concept"),
	}
	if raw := v.Get("style"); raw != "" {
		st, err := item.ParseStyle(raw)
		if err != nil {
			return q, err
		}
		q.Style = st
	}
	if raw := v.Get("level"); raw != "" {
		lvl, err := cognition.ParseLevel(raw)
		if err != nil {
			return q, err
		}
		q.Level = lvl
	}
	for _, f := range []struct {
		name string
		dst  *float64
	}{
		{"minDifficulty", &q.MinDifficulty},
		{"maxDifficulty", &q.MaxDifficulty},
		{"minDiscrimination", &q.MinDiscrimination},
	} {
		raw := v.Get(f.name)
		if raw == "" {
			continue
		}
		x, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return q, errors.New("bad " + f.name + " parameter")
		}
		*f.dst = x
	}
	if raw := v.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return q, errors.New("bad limit parameter")
		}
		q.Limit = n
	}
	return q, nil
}

func (s *Server) listProblems(w http.ResponseWriter, r *http.Request, _ string) {
	q, err := parseQuery(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	found := s.store.Search(q)
	if found == nil {
		found = []*item.Problem{} // JSON [] for empty, never null
	}
	writeJSON(w, http.StatusOK, ProblemList{Problems: found, Total: len(found)})
}

func (s *Server) createProblem(w http.ResponseWriter, r *http.Request, _ string) {
	var p item.Problem
	if !decodeBody(w, r, &p) {
		return
	}
	if !checkResourceID(w, p.ID) {
		return
	}
	if err := addProblemCtx(r.Context(), s.store, &p); err != nil {
		writeAuthoringError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, &p)
}

// problemCtxAdder is the optional context-carrying insert that journaled
// backends implement (bank.Journal.AddProblemCtx); when the store provides
// it, a traced POST /v1/problems request's WAL commit — with its
// enqueue-wait / batch-wait / fsync phase children — joins the span tree.
type problemCtxAdder interface {
	AddProblemCtx(ctx context.Context, p *item.Problem) error
}

// addProblemCtx stores the problem, threading ctx to the journal when the
// backend supports it.
func addProblemCtx(ctx context.Context, store bank.Storage, p *item.Problem) error {
	if a, ok := store.(problemCtxAdder); ok {
		return a.AddProblemCtx(ctx, p)
	}
	return store.AddProblem(p)
}

func (s *Server) updateProblem(w http.ResponseWriter, r *http.Request, id string) {
	var p item.Problem
	if !decodeBody(w, r, &p) {
		return
	}
	if p.ID == "" {
		p.ID = id
	} else if p.ID != id {
		badRequest(w, "body ID %q does not match URL ID %q", p.ID, id)
		return
	}
	if err := s.store.UpdateProblem(&p); err != nil {
		writeAuthoringError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &p)
}

func (s *Server) deleteProblem(w http.ResponseWriter, _ *http.Request, id string) {
	if err := s.store.DeleteProblem(id); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- Exams ---

func (s *Server) listExams(w http.ResponseWriter, _ *http.Request, _ string) {
	writeJSON(w, http.StatusOK, ExamList{ExamIDs: s.store.ExamIDs()})
}

func (s *Server) createExam(w http.ResponseWriter, r *http.Request, _ string) {
	var rec bank.ExamRecord
	if !decodeBody(w, r, &rec) {
		return
	}
	if !checkResourceID(w, rec.ID) {
		return
	}
	if rec.Display == 0 {
		rec.Display = item.FixedOrder
	}
	if !rec.Display.Valid() {
		badRequest(w, "invalid display order %d", int(rec.Display))
		return
	}
	// A problem listed twice would be delivered and scored twice. The rule
	// is an exam draft's; the bank itself accepts such a record, so a
	// journal that already holds one still replays.
	if err := authoring.NewExamDraft(rec.ID, rec.Title).Add(rec.ProblemIDs...); err != nil {
		writeAuthoringError(w, err)
		return
	}
	if err := s.store.AddExam(&rec); err != nil {
		// A dangling problem reference is a payload defect, not a lookup on
		// a problem resource — report it as validation, not 404.
		if errors.Is(err, bank.ErrProblemNotFound) {
			writeErr(w, &Error{Code: CodeValidation, Message: err.Error()})
			return
		}
		writeAuthoringError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, &rec)
}

func (s *Server) deleteExam(w http.ResponseWriter, _ *http.Request, id string) {
	if err := s.store.DeleteExam(id); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// assembleExam implements POST /v1/exams:assemble — the paper's
// blueprint-driven authoring workflow over HTTP. The server selects problems
// satisfying every (concept, level) cell, finalizes the draft, stores the
// exam, and returns the record; an underfilled bank is a 422
// BLUEPRINT_SHORTFALL whose details list every deficient cell.
func (s *Server) assembleExam(w http.ResponseWriter, r *http.Request, _ string) {
	var req AssembleExamRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.ID) == "" {
		badRequest(w, "missing exam ID")
		return
	}
	if !checkResourceID(w, req.ID) {
		return
	}
	if len(req.Require) == 0 {
		badRequest(w, "empty blueprint")
		return
	}
	if req.Display == 0 {
		req.Display = item.FixedOrder
	}
	if !req.Display.Valid() {
		badRequest(w, "invalid display order %d", int(req.Display))
		return
	}
	bp := authoring.NewBlueprint()
	for _, cell := range req.Require {
		if cell.ConceptID == "" {
			badRequest(w, "blueprint cell missing conceptId")
			return
		}
		if err := bp.Require(cell.ConceptID, cell.Level, cell.Count); err != nil {
			badRequest(w, "%v", err)
			return
		}
	}
	ids, err := authoring.Assemble(s.store, bp)
	if err != nil {
		writeError(w, err) // ShortfallError -> 422 with cell details
		return
	}
	draft := authoring.NewExamDraft(req.ID, req.Title)
	draft.Display = req.Display
	draft.TestTime = time.Duration(req.TestTimeSeconds) * time.Second
	if err := draft.Add(ids...); err != nil {
		writeAuthoringError(w, err)
		return
	}
	rec, err := draft.Finalize(s.store)
	if err != nil {
		writeAuthoringError(w, err)
		return
	}
	if err := s.store.AddExam(rec); err != nil {
		writeAuthoringError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, AssembleExamResponse{Exam: rec})
}
