// Package client is the typed Go SDK for the LMS /v1 API. It is built
// around the same request/response structs the server serializes (the
// public pkg/api wire types plus the canonical domain payloads aliased
// there), so a client and server compiled from the same tree can never
// disagree about the contract.
//
// Every non-2xx response is returned as *APIError carrying the server's
// machine-readable error code; the codes are re-exported here so callers
// can branch without importing internal packages:
//
//	c := client.New(baseURL, client.WithLearnerID("alice"))
//	start, err := c.StartSession("midterm", "alice", 7)
//	var apiErr *client.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == client.CodeExamNotFound {
//		// handle the typo'd exam ID
//	}
//
// External modules construct requests and destructure responses through
// pkg/api's public names (api.Problem, api.ExamRecord, api.SessionStatus,
// ...), which alias the exact types this module uses internally — no
// conversion layer, no drift.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/bank"
	"mineassess/internal/delivery"
	"mineassess/internal/item"
	"mineassess/pkg/api"
)

// Code aliases the server's error-code type; the values below re-export
// the full taxonomy (see API.md for status mapping and semantics).
type Code = api.Code

// The v1 error taxonomy, re-exported for callers.
const (
	CodeBadRequest         = api.CodeBadRequest
	CodeValidation         = api.CodeValidation
	CodeNotFound           = api.CodeNotFound
	CodeMethodNotAllowed   = api.CodeMethodNotAllowed
	CodeSessionNotFound    = api.CodeSessionNotFound
	CodeExamNotFound       = api.CodeExamNotFound
	CodeProblemNotFound    = api.CodeProblemNotFound
	CodeExamExists         = api.CodeExamExists
	CodeProblemExists      = api.CodeProblemExists
	CodeSessionNotActive   = api.CodeSessionNotActive
	CodeSessionNotPaused   = api.CodeSessionNotPaused
	CodeNotResumable       = api.CodeNotResumable
	CodeTimeExpired        = api.CodeTimeExpired
	CodeUnknownProblem     = api.CodeUnknownProblem
	CodeAlreadyAnswered    = api.CodeAlreadyAnswered
	CodeNotAnswered        = api.CodeNotAnswered
	CodeAutoGraded         = api.CodeAutoGraded
	CodeInvalidCredit      = api.CodeInvalidCredit
	CodeBlueprintShortfall = api.CodeBlueprintShortfall
	CodeRateLimited        = api.CodeRateLimited
	CodeInternal           = api.CodeInternal
	CodeNotCalibrated      = api.CodeNotCalibrated
	CodeItemNotPending     = api.CodeItemNotPending
	CodeInsufficientData   = api.CodeInsufficientData
)

// APIError is a non-2xx response decoded from the server's error envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable error identifier.
	Code api.Code
	// Message is the human-readable explanation.
	Message string
	// Details carries code-specific structured context (e.g. blueprint
	// shortfall cells).
	Details map[string]any
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("api: %d %s: %s", e.Status, e.Code, e.Message)
}

// Client talks to one LMS server. The zero value is not usable; call New.
type Client struct {
	base      string
	http      *http.Client
	learnerID string
}

// Option configures a Client.
type Option func(*Client)

// DefaultTimeout bounds every request of a default-configured client so a
// wedged server cannot hang a learner tool forever; override with
// WithHTTPClient.
const DefaultTimeout = 30 * time.Second

// WithHTTPClient substitutes the transport (custom timeouts, test doubles).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithLearnerID sets the X-Learner-ID header on every request, giving the
// server's per-learner rate limiter a stable key independent of NAT.
func WithLearnerID(id string) Option {
	return func(c *Client) { c.learnerID = id }
}

// New builds a client for the server at baseURL (e.g. "http://lms:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: DefaultTimeout},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one request. in == nil sends no body; out == nil discards the
// response body. Non-2xx responses become *APIError. Before closing the
// body it reads what is left of it, up to bodyReadLimit bytes: the server
// streams JSON, so a chunked body's terminator can still be unread once the
// value is decoded, and a body closed before its end costs the keep-alive
// connection.
func (c *Client) do(method, path string, in, out any) error {
	if out == nil {
		return c.send(method, path, in, nil)
	}
	return c.send(method, path, in, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(out)
	})
}

// send is do with the decode left to the caller: decode reads the body of
// a 2xx response that has one (nil discards it).
func (c *Client) send(method, path string, in any, decode func(io.Reader) error) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.learnerID != "" {
		req.Header.Set("X-Learner-ID", c.learnerID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer closeBody(resp.Body)
	if resp.StatusCode >= 400 {
		return decodeAPIError(resp)
	}
	if decode != nil && resp.StatusCode != http.StatusNoContent {
		if err := decode(resp.Body); err != nil {
			return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// bodyReadLimit bounds what the SDK reads of a response body besides the
// value it decodes: an error envelope, or what is left after the value.
const bodyReadLimit = 1 << 16

// closeBody reads what is left of body, up to bodyReadLimit bytes, then
// closes it. A failed or cut-short read only costs the keep-alive
// connection, so its error is dropped.
func closeBody(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, bodyReadLimit))
	_ = body.Close()
}

// decodeAPIError reads the error envelope; a body that is not an envelope
// (e.g. a proxy's HTML error page) still yields a usable APIError.
func decodeAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, bodyReadLimit))
	var env api.Error
	if err := json.Unmarshal(raw, &env); err != nil || env.Code == "" {
		return &APIError{
			Status:  resp.StatusCode,
			Code:    api.CodeInternal,
			Message: strings.TrimSpace(string(raw)),
		}
	}
	return &APIError{
		Status:  resp.StatusCode,
		Code:    env.Code,
		Message: env.Message,
		Details: env.Details,
	}
}

// --- Session delivery ---

// StartSession opens a session on an exam and returns the presentation
// order.
func (c *Client) StartSession(examID, studentID string, seed int64) (*api.StartSessionResponse, error) {
	var out api.StartSessionResponse
	err := c.do(http.MethodPost, "/v1/exams/"+url.PathEscape(examID)+"/sessions",
		api.StartSessionRequest{StudentID: studentID, Seed: seed}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Session reports a session's current status.
func (c *Client) Session(sessionID string) (*delivery.Status, error) {
	var out delivery.Status
	if err := c.do(http.MethodGet, "/v1/sessions/"+url.PathEscape(sessionID), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Answer records a learner's response.
func (c *Client) Answer(sessionID, problemID, response string) error {
	return c.do(http.MethodPost, "/v1/sessions/"+url.PathEscape(sessionID)+":answer",
		api.AnswerRequest{ProblemID: problemID, Response: response}, nil)
}

// Pause suspends a resumable session.
func (c *Client) Pause(sessionID string) error {
	return c.do(http.MethodPost, "/v1/sessions/"+url.PathEscape(sessionID)+":pause", nil, nil)
}

// Resume reactivates a paused session.
func (c *Client) Resume(sessionID string) error {
	return c.do(http.MethodPost, "/v1/sessions/"+url.PathEscape(sessionID)+":resume", nil, nil)
}

// Finish closes a session and returns its graded result row.
func (c *Client) Finish(sessionID string) (*analysis.StudentResult, error) {
	var out analysis.StudentResult
	if err := c.do(http.MethodPost, "/v1/sessions/"+url.PathEscape(sessionID)+":finish", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Monitor returns the session's captured monitor snapshots.
func (c *Client) Monitor(sessionID string) ([]delivery.Snapshot, error) {
	var out []delivery.Snapshot
	if err := c.do(http.MethodGet, "/v1/sessions/"+url.PathEscape(sessionID)+"/monitor", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// RTE bridges one SCORM RTE call (getvalue, setvalue, commit,
// geterrorstring) for SCO content.
func (c *Client) RTE(sessionID string, req api.RTERequest) (*api.RTEResponse, error) {
	var out api.RTEResponse
	if err := c.do(http.MethodPost, "/v1/sessions/"+url.PathEscape(sessionID)+"/rte", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// --- Problem authoring ---

// CreateProblem stores a new problem in the bank.
func (c *Client) CreateProblem(p *item.Problem) error {
	return c.do(http.MethodPost, "/v1/problems", p, nil)
}

// Problem fetches one problem by ID.
func (c *Client) Problem(id string) (*item.Problem, error) {
	var out item.Problem
	if err := c.do(http.MethodGet, "/v1/problems/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// UpdateProblem replaces an existing problem (the previous version is kept
// in the bank's revision history).
func (c *Client) UpdateProblem(p *item.Problem) error {
	return c.do(http.MethodPut, "/v1/problems/"+url.PathEscape(p.ID), p, nil)
}

// DeleteProblem removes a problem from the bank.
func (c *Client) DeleteProblem(id string) error {
	return c.do(http.MethodDelete, "/v1/problems/"+url.PathEscape(id), nil, nil)
}

// ProblemQuery filters ListProblems; zero-valued fields are wildcards.
// Style and Level use their text forms (e.g. "MultipleChoice", "Knowledge"
// or "A"). The difficulty/discrimination bounds mirror bank.Query: both
// difficulty bounds zero means unbounded, and unmeasured items match only
// when no bound is set.
type ProblemQuery struct {
	Subject           string
	Keyword           string
	Style             string
	Level             string
	ConceptID         string
	MinDifficulty     float64
	MaxDifficulty     float64
	MinDiscrimination float64
	Limit             int
}

// ListProblems searches the bank.
func (c *Client) ListProblems(q ProblemQuery) (*api.ProblemList, error) {
	v := url.Values{}
	set := func(key, val string) {
		if val != "" {
			v.Set(key, val)
		}
	}
	set("subject", q.Subject)
	set("keyword", q.Keyword)
	set("style", q.Style)
	set("level", q.Level)
	set("concept", q.ConceptID)
	setF := func(key string, val float64) {
		if val != 0 {
			v.Set(key, strconv.FormatFloat(val, 'g', -1, 64))
		}
	}
	setF("minDifficulty", q.MinDifficulty)
	setF("maxDifficulty", q.MaxDifficulty)
	setF("minDiscrimination", q.MinDiscrimination)
	if q.Limit > 0 {
		v.Set("limit", fmt.Sprint(q.Limit))
	}
	path := "/v1/problems"
	if enc := v.Encode(); enc != "" {
		path += "?" + enc
	}
	var out api.ProblemList
	if err := c.do(http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// --- Exam authoring ---

// CreateExam stores an exam record referencing existing problems.
func (c *Client) CreateExam(rec *bank.ExamRecord) error {
	return c.do(http.MethodPost, "/v1/exams", rec, nil)
}

// Exam fetches one exam record.
func (c *Client) Exam(id string) (*bank.ExamRecord, error) {
	var out bank.ExamRecord
	if err := c.do(http.MethodGet, "/v1/exams/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteExam removes an exam record.
func (c *Client) DeleteExam(id string) error {
	return c.do(http.MethodDelete, "/v1/exams/"+url.PathEscape(id), nil, nil)
}

// ListExams returns all exam IDs.
func (c *Client) ListExams() ([]string, error) {
	var out api.ExamList
	if err := c.do(http.MethodGet, "/v1/exams", nil, &out); err != nil {
		return nil, err
	}
	return out.ExamIDs, nil
}

// AssembleExam runs blueprint-driven assembly server-side and returns the
// stored exam. An underfilled bank yields an *APIError with
// api.CodeBlueprintShortfall and per-cell details.
func (c *Client) AssembleExam(req api.AssembleExamRequest) (*bank.ExamRecord, error) {
	var out api.AssembleExamResponse
	if err := c.do(http.MethodPost, "/v1/exams:assemble", req, &out); err != nil {
		return nil, err
	}
	return out.Exam, nil
}

// --- Administration ---

// SessionSummaries lists the status of every session on an exam.
func (c *Client) SessionSummaries(examID string) ([]delivery.Status, error) {
	var out []delivery.Status
	if err := c.do(http.MethodGet, "/v1/exams/"+url.PathEscape(examID)+"/sessions", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// PendingGrades lists responses awaiting manual credit.
func (c *Client) PendingGrades(examID string) ([]delivery.PendingGrade, error) {
	var out []delivery.PendingGrade
	if err := c.do(http.MethodGet, "/v1/exams/"+url.PathEscape(examID)+"/grades", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// AssignGrade records an instructor's credit for a manually graded
// response.
func (c *Client) AssignGrade(sessionID, problemID string, credit float64) error {
	return c.do(http.MethodPost, "/v1/grades",
		api.GradeRequest{SessionID: sessionID, ProblemID: problemID, Credit: credit}, nil)
}

// Results exports the exam's collected response matrix for analysis. The
// export is read one student at a time (analysis.DecodeResult), so what
// the SDK buffers does not grow with the class.
func (c *Client) Results(examID string) (*analysis.ExamResult, error) {
	var out *analysis.ExamResult
	err := c.send(http.MethodGet, "/v1/exams/"+url.PathEscape(examID)+"/results", nil,
		func(r io.Reader) (err error) {
			out, err = analysis.DecodeResult(r)
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics fetches the server's metrics snapshot.
func (c *Client) Metrics() (*api.MetricsSnapshot, error) {
	var out api.MetricsSnapshot
	if err := c.do(http.MethodGet, "/v1/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// --- Adaptive (CAT) delivery ---

// StartAdaptiveSession opens a live adaptive session on a calibrated exam
// and returns the first item to administer. Uncalibrated exams yield an
// *APIError with CodeNotCalibrated.
func (c *Client) StartAdaptiveSession(req api.StartAdaptiveSessionRequest) (*api.StartAdaptiveSessionResponse, error) {
	var out api.StartAdaptiveSessionResponse
	if err := c.do(http.MethodPost, "/v1/adaptive-sessions", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AdaptiveStatus reports an adaptive session's current summary (state,
// theta, SE, administered count, pending item).
func (c *Client) AdaptiveStatus(sessionID string) (*api.AdaptiveStatus, error) {
	var out api.AdaptiveStatus
	if err := c.do(http.MethodGet, "/v1/adaptive-sessions/"+url.PathEscape(sessionID), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AdaptiveNext re-fetches the pending item without mutating the session —
// safe after a client crash mid-test.
func (c *Client) AdaptiveNext(sessionID string) (*api.AdaptiveItem, error) {
	var out api.AdaptiveItem
	if err := c.do(http.MethodGet, "/v1/adaptive-sessions/"+url.PathEscape(sessionID)+"/next", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AdaptiveRespond answers the pending item and returns the updated ability
// estimate plus either the next item or the stop decision.
func (c *Client) AdaptiveRespond(sessionID, problemID, response string) (*api.AdaptiveProgress, error) {
	var out api.AdaptiveProgress
	err := c.do(http.MethodPost, "/v1/adaptive-sessions/"+url.PathEscape(sessionID)+":respond",
		api.AnswerRequest{ProblemID: problemID, Response: response}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// FinishAdaptiveSession closes an adaptive session (idempotent) and returns
// its outcome.
func (c *Client) FinishAdaptiveSession(sessionID string) (*api.AdaptiveOutcome, error) {
	var out api.AdaptiveOutcome
	if err := c.do(http.MethodPost, "/v1/adaptive-sessions/"+url.PathEscape(sessionID)+":finish", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AdaptiveMonitor returns the adaptive session's captured monitor
// snapshots.
func (c *Client) AdaptiveMonitor(sessionID string) ([]api.MonitorSnapshot, error) {
	var out []api.MonitorSnapshot
	if err := c.do(http.MethodGet, "/v1/adaptive-sessions/"+url.PathEscape(sessionID)+"/monitor", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// RecalibrateExam folds the server's logged adaptive responses back into
// the exam's stored item parameters and reports what changed.
// minObservations 0 uses the server default.
func (c *Client) RecalibrateExam(examID string, minObservations int) (*api.RecalibrateResponse, error) {
	var out api.RecalibrateResponse
	err := c.do(http.MethodPost, "/v1/exams/"+url.PathEscape(examID)+":recalibrate",
		api.RecalibrateRequest{MinObservations: minObservations}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// PurgeAdaptiveSessions removes finished adaptive sessions from the
// server's registry and storage (retention pass); run after
// RecalibrateExam to keep calibration input.
func (c *Client) PurgeAdaptiveSessions() (int, error) {
	var out api.PurgeAdaptiveSessionsResponse
	if err := c.do(http.MethodPost, "/v1/adaptive-sessions:purge", nil, &out); err != nil {
		return 0, err
	}
	return out.Purged, nil
}
