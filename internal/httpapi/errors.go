package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"mineassess/internal/adaptive"
	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/delivery"
	"mineassess/pkg/api"
)

// Code is a stable machine-readable error identifier, promoted to the
// public pkg/api package; this alias keeps the server code reading
// naturally. Codes are part of the v1 API contract: clients branch on them,
// so existing codes never change meaning and removed features keep their
// codes reserved.
type Code = api.Code

// The v1 error taxonomy, re-exported from pkg/api. Each code maps to
// exactly one HTTP status (see statusOf); the mapping from internal
// sentinel errors lives in FromError.
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

// Error is the wire error envelope every non-2xx response carries (defined
// in pkg/api; aliased for the server's internal use).
type Error = api.Error

// statusOf maps a code to its HTTP status.
func statusOf(c Code) int {
	switch c {
	case CodeBadRequest, CodeValidation, CodeUnknownProblem,
		CodeNotAnswered, CodeAutoGraded, CodeInvalidCredit:
		return http.StatusBadRequest
	case CodeNotFound, CodeSessionNotFound, CodeExamNotFound, CodeProblemNotFound:
		return http.StatusNotFound
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeSessionNotActive, CodeSessionNotPaused, CodeNotResumable,
		CodeTimeExpired, CodeAlreadyAnswered, CodeExamExists, CodeProblemExists:
		return http.StatusConflict
	case CodeItemNotPending:
		return http.StatusConflict
	case CodeBlueprintShortfall, CodeNotCalibrated, CodeInsufficientData:
		return http.StatusUnprocessableEntity
	case CodeRateLimited:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// FromError classifies an internal error into the taxonomy. Unknown errors
// become CodeInternal with the message redacted (internals must not leak
// through the API surface).
func FromError(err error) *Error {
	code := CodeInternal
	switch {
	case errors.Is(err, bank.ErrJournalClosed):
		// The server has stopped persisting: its fault, whatever the
		// request, so the code stays INTERNAL and the message redacted.
	case errors.Is(err, delivery.ErrSessionNotFound):
		code = CodeSessionNotFound
	case errors.Is(err, bank.ErrExamNotFound):
		code = CodeExamNotFound
	case errors.Is(err, bank.ErrProblemNotFound):
		code = CodeProblemNotFound
	case errors.Is(err, bank.ErrExamExists):
		code = CodeExamExists
	case errors.Is(err, bank.ErrProblemExists):
		code = CodeProblemExists
	case errors.Is(err, delivery.ErrSessionNotActive):
		code = CodeSessionNotActive
	case errors.Is(err, delivery.ErrNotPaused):
		code = CodeSessionNotPaused
	case errors.Is(err, delivery.ErrNotResumable):
		code = CodeNotResumable
	case errors.Is(err, delivery.ErrTimeExpired):
		code = CodeTimeExpired
	case errors.Is(err, delivery.ErrUnknownProblem):
		code = CodeUnknownProblem
	case errors.Is(err, delivery.ErrAlreadyAnswered):
		code = CodeAlreadyAnswered
	case errors.Is(err, delivery.ErrNotAnswered):
		code = CodeNotAnswered
	case errors.Is(err, delivery.ErrAutoGraded):
		code = CodeAutoGraded
	case errors.Is(err, delivery.ErrInvalidCredit):
		code = CodeInvalidCredit
	case errors.Is(err, catdelivery.ErrSessionNotFound):
		code = CodeSessionNotFound
	case errors.Is(err, catdelivery.ErrSessionFinished):
		code = CodeSessionNotActive
	case errors.Is(err, catdelivery.ErrItemNotPending):
		code = CodeItemNotPending
	case errors.Is(err, catdelivery.ErrNotCalibrated):
		code = CodeNotCalibrated
	case errors.Is(err, catdelivery.ErrNoResponses),
		errors.Is(err, adaptive.ErrTooFewObservations):
		code = CodeInsufficientData
	case errors.Is(err, adaptive.ErrInvalidConfig),
		errors.Is(err, catdelivery.ErrNotGradable):
		code = CodeValidation
	case errors.Is(err, authoring.ErrShortfall):
		return shortfallError(err)
	case errors.Is(err, authoring.ErrEmptyExam),
		errors.Is(err, authoring.ErrDuplicateProblem),
		errors.Is(err, authoring.ErrUnknownGroupItem):
		code = CodeValidation
	}
	msg := err.Error()
	if code == CodeInternal {
		msg = "internal error"
	}
	return &Error{Code: code, Message: msg}
}

// shortfallError carries every deficient blueprint cell in the details so an
// authoring client can show the instructor exactly what the bank is missing.
func shortfallError(err error) *Error {
	e := &Error{Code: CodeBlueprintShortfall, Message: err.Error()}
	var sf *authoring.ShortfallError
	if errors.As(err, &sf) {
		var cells []map[string]any
		for _, s := range sf.Shortfalls {
			cells = append(cells, map[string]any{
				"conceptId": s.ConceptID,
				"level":     s.Level.String(),
				"required":  s.Required,
				"available": s.Available,
			})
		}
		e.Details = map[string]any{"shortfalls": cells}
	}
	return e
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr writes an envelope at its taxonomy status.
func writeErr(w http.ResponseWriter, e *Error) {
	writeJSON(w, statusOf(e.Code), e)
}

// writeError classifies err and writes its envelope.
func writeError(w http.ResponseWriter, err error) {
	writeErr(w, FromError(err))
}

// badRequest is the envelope for malformed requests (bad JSON, missing
// fields, unparseable parameters).
func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeErr(w, &Error{Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)})
}

// notFoundRoute serves a path that matches no route.
func notFoundRoute(w http.ResponseWriter, r *http.Request, _ string) {
	writeErr(w, &Error{Code: CodeNotFound, Message: "no such route: " + r.URL.Path})
}

// methodNotAllowed writes a 405 envelope with the Allow header set.
func methodNotAllowed(w http.ResponseWriter, allowed ...string) {
	for _, m := range allowed {
		w.Header().Add("Allow", m)
	}
	writeErr(w, &Error{Code: CodeMethodNotAllowed, Message: "method not allowed"})
}
