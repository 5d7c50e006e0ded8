package httpapi

// Route-level contract for /v1/adaptive-sessions and exams:recalibrate:
// error taxonomy, full session loop over raw HTTP, and the disabled-feature
// envelope when no adaptive engine is wired in.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
	"mineassess/internal/catdelivery"
	"mineassess/internal/cognition"
	"mineassess/internal/delivery"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
)

// calibratedFixture stores n auto-gradable MC problems (answer "A") with
// IRT parameters as exam "cat1", in a store guarded against in-place edits
// of its values.
func calibratedFixture(t *testing.T, n int) bank.Storage {
	t.Helper()
	s := bank.New()
	params := make(map[string]simulate.IRTParams, n)
	var ids []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("aq%02d", i+1)
		p, err := item.NewMultipleChoice(id, "?", []string{"w", "x", "y", "z"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.Level = cognition.Knowledge
		if err := s.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		params[id] = simulate.IRTParams{A: 1.8, B: -1.5 + 3*float64(i)/float64(n-1)}
		ids = append(ids, id)
	}
	if err := s.AddExam(&bank.ExamRecord{ID: "cat1", Title: "CAT pool",
		ProblemIDs: ids, ItemParams: params}); err != nil {
		t.Fatal(err)
	}
	// An uncalibrated exam rides along for the taxonomy checks.
	if err := s.AddExam(&bank.ExamRecord{ID: "plain", Title: "Fixed only",
		ProblemIDs: ids[:2]}); err != nil {
		t.Fatal(err)
	}
	return banktest.Guard(t, s)
}

// adaptiveServer wires a calibrated bank plus both engines.
func adaptiveServer(t *testing.T) (*httptest.Server, *catdelivery.Engine) {
	t.Helper()
	store := calibratedFixture(t, 10)
	cat, err := catdelivery.NewEngine(store, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := delivery.NewEngine(store, nil, 0)
	srv := httptest.NewServer(NewServer(eng, store, Options{Adaptive: cat}))
	t.Cleanup(srv.Close)
	return srv, cat
}

func TestAdaptiveSessionLoopOverHTTP(t *testing.T) {
	srv, _ := adaptiveServer(t)
	var started StartAdaptiveSessionResponse
	code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/adaptive-sessions",
		StartAdaptiveSessionRequest{ExamID: "cat1", StudentID: "ada", Seed: 3},
		&started)
	if code != http.StatusOK || started.SessionID == "" || started.Next == nil {
		t.Fatalf("start: %d %s", code, raw)
	}
	// GET next re-fetches the same pending item.
	var next struct {
		ProblemID string `json:"problemId"`
	}
	code, raw = doJSON(t, http.MethodGet,
		srv.URL+"/v1/adaptive-sessions/"+started.SessionID+"/next", nil, &next)
	if code != http.StatusOK || next.ProblemID != started.Next.ProblemID {
		t.Fatalf("next: %d %s", code, raw)
	}
	pending := started.Next.ProblemID
	answered := 0
	for {
		var prog struct {
			Done bool `json:"done"`
			Next *struct {
				ProblemID string `json:"problemId"`
			} `json:"next"`
			Administered int     `json:"administered"`
			SE           float64 `json:"se"`
		}
		code, raw = doJSON(t, http.MethodPost,
			srv.URL+"/v1/adaptive-sessions/"+started.SessionID+":respond",
			AnswerRequest{ProblemID: pending, Response: "A"}, &prog)
		if code != http.StatusOK {
			t.Fatalf("respond: %d %s", code, raw)
		}
		answered++
		if prog.Done {
			break
		}
		pending = prog.Next.ProblemID
	}
	if answered != 10 {
		t.Errorf("answered = %d, want whole pool", answered)
	}
	// Status reflects the finished state.
	var st struct {
		State        string  `json:"state"`
		Administered int     `json:"administered"`
		Theta        float64 `json:"theta"`
	}
	code, raw = doJSON(t, http.MethodGet,
		srv.URL+"/v1/adaptive-sessions/"+started.SessionID, nil, &st)
	if code != http.StatusOK || st.State != "finished" || st.Administered != 10 {
		t.Fatalf("status: %d %s", code, raw)
	}
	if st.Theta < 1 {
		t.Errorf("all-correct theta = %v, want high", st.Theta)
	}
	// Finish is idempotent and returns the outcome.
	var out struct {
		StopReason string `json:"stopReason"`
	}
	code, raw = doJSON(t, http.MethodPost,
		srv.URL+"/v1/adaptive-sessions/"+started.SessionID+":finish", nil, &out)
	if code != http.StatusOK || out.StopReason == "" {
		t.Fatalf("finish: %d %s", code, raw)
	}
	// Monitor captured one snapshot per mutation.
	code, raw = doJSON(t, http.MethodGet,
		srv.URL+"/v1/adaptive-sessions/"+started.SessionID+"/monitor", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("monitor: %d %s", code, raw)
	}
}

func TestAdaptiveErrorTaxonomy(t *testing.T) {
	srv, _ := adaptiveServer(t)
	base := srv.URL

	// Uncalibrated exam -> 422 EXAM_NOT_CALIBRATED.
	code, raw := doJSON(t, http.MethodPost, base+"/v1/adaptive-sessions",
		StartAdaptiveSessionRequest{ExamID: "plain", StudentID: "x"}, nil)
	wantEnvelope(t, code, raw, CodeNotCalibrated)

	// Unknown exam -> 404 EXAM_NOT_FOUND.
	code, raw = doJSON(t, http.MethodPost, base+"/v1/adaptive-sessions",
		StartAdaptiveSessionRequest{ExamID: "ghost", StudentID: "x"}, nil)
	wantEnvelope(t, code, raw, CodeExamNotFound)

	// Invalid config -> 400 VALIDATION_FAILED.
	req := StartAdaptiveSessionRequest{ExamID: "cat1", StudentID: "x"}
	req.TargetSE = -1
	code, raw = doJSON(t, http.MethodPost, base+"/v1/adaptive-sessions", req, nil)
	wantEnvelope(t, code, raw, CodeValidation)

	// Unknown session -> 404 SESSION_NOT_FOUND.
	code, raw = doJSON(t, http.MethodGet, base+"/v1/adaptive-sessions/cat-999999", nil, nil)
	wantEnvelope(t, code, raw, CodeSessionNotFound)

	// Wrong item -> 409 ITEM_NOT_PENDING.
	var started StartAdaptiveSessionResponse
	doJSON(t, http.MethodPost, base+"/v1/adaptive-sessions",
		StartAdaptiveSessionRequest{ExamID: "cat1", StudentID: "y"}, &started)
	code, raw = doJSON(t, http.MethodPost,
		base+"/v1/adaptive-sessions/"+started.SessionID+":respond",
		AnswerRequest{ProblemID: "definitely-wrong", Response: "A"}, nil)
	wantEnvelope(t, code, raw, CodeItemNotPending)

	// Respond after finish -> 409 SESSION_NOT_ACTIVE.
	doJSON(t, http.MethodPost, base+"/v1/adaptive-sessions/"+started.SessionID+":finish", nil, nil)
	code, raw = doJSON(t, http.MethodPost,
		base+"/v1/adaptive-sessions/"+started.SessionID+":respond",
		AnswerRequest{ProblemID: started.Next.ProblemID, Response: "A"}, nil)
	wantEnvelope(t, code, raw, CodeSessionNotActive)

	// Recalibrate before any sessions finish with responses -> data check.
	code, raw = doJSON(t, http.MethodPost, base+"/v1/exams/plain:recalibrate", nil, nil)
	wantEnvelope(t, code, raw, CodeNotCalibrated)

	// Method discipline on the verbs.
	code, raw = doJSON(t, http.MethodGet, base+"/v1/adaptive-sessions", nil, nil)
	wantEnvelope(t, code, raw, CodeMethodNotAllowed)
	code, raw = doJSON(t, http.MethodGet, base+"/v1/exams/cat1:recalibrate", nil, nil)
	wantEnvelope(t, code, raw, CodeMethodNotAllowed)
	code, raw = doJSON(t, http.MethodPost,
		base+"/v1/adaptive-sessions/"+started.SessionID+":warp", nil, nil)
	wantEnvelope(t, code, raw, CodeNotFound)
}

func TestRecalibrateOverHTTP(t *testing.T) {
	srv, _ := adaptiveServer(t)
	// No logged responses yet -> 422 INSUFFICIENT_DATA.
	code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/exams/cat1:recalibrate", nil, nil)
	wantEnvelope(t, code, raw, CodeInsufficientData)

	// Drive a few all-correct sessions so recalibration has data.
	for i := 0; i < 4; i++ {
		var started StartAdaptiveSessionResponse
		doJSON(t, http.MethodPost, srv.URL+"/v1/adaptive-sessions",
			StartAdaptiveSessionRequest{ExamID: "cat1",
				StudentID: fmt.Sprintf("r%d", i), Seed: int64(i)}, &started)
		next := started.Next.ProblemID
		for {
			var prog struct {
				Done bool `json:"done"`
				Next *struct {
					ProblemID string `json:"problemId"`
				} `json:"next"`
			}
			doJSON(t, http.MethodPost,
				srv.URL+"/v1/adaptive-sessions/"+started.SessionID+":respond",
				AnswerRequest{ProblemID: next, Response: "A"}, &prog)
			if prog.Done {
				break
			}
			next = prog.Next.ProblemID
		}
	}
	var resp RecalibrateResponse
	code, raw = doJSON(t, http.MethodPost, srv.URL+"/v1/exams/cat1:recalibrate",
		RecalibrateRequest{MinObservations: 3}, &resp)
	if code != http.StatusOK {
		t.Fatalf("recalibrate: %d %s", code, raw)
	}
	if len(resp.Updated) == 0 || resp.Observations != 40 {
		t.Errorf("recalibrate response = %+v", resp)
	}
}

func TestAdaptiveDisabledReturnsTypedNotFound(t *testing.T) {
	store := calibratedFixture(t, 4)
	eng := delivery.NewEngine(store, nil, 0)
	srv := httptest.NewServer(NewServer(eng, store, Options{})) // no Adaptive
	defer srv.Close()
	code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/adaptive-sessions",
		StartAdaptiveSessionRequest{ExamID: "cat1", StudentID: "x"}, nil)
	wantEnvelope(t, code, raw, CodeNotFound)
	code, raw = doJSON(t, http.MethodPost, srv.URL+"/v1/exams/cat1:recalibrate", nil, nil)
	wantEnvelope(t, code, raw, CodeNotFound)
}

func TestAdaptivePurgeOverHTTP(t *testing.T) {
	srv, cat := adaptiveServer(t)
	// Finish one quick session.
	var started StartAdaptiveSessionResponse
	req := StartAdaptiveSessionRequest{ExamID: "cat1", StudentID: "p"}
	req.MaxItems = 1
	doJSON(t, http.MethodPost, srv.URL+"/v1/adaptive-sessions", req, &started)
	doJSON(t, http.MethodPost, srv.URL+"/v1/adaptive-sessions/"+started.SessionID+":respond",
		AnswerRequest{ProblemID: started.Next.ProblemID, Response: "A"}, nil)
	var resp PurgeAdaptiveSessionsResponse
	code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/adaptive-sessions:purge", nil, &resp)
	if code != http.StatusOK || resp.Purged != 1 {
		t.Fatalf("purge: %d %s", code, raw)
	}
	if cat.SessionCount() != 0 {
		t.Errorf("sessions after purge = %d", cat.SessionCount())
	}
	code, raw = doJSON(t, http.MethodGet, srv.URL+"/v1/adaptive-sessions:purge", nil, nil)
	wantEnvelope(t, code, raw, CodeMethodNotAllowed)
}

// TestColonExamIDsStillResolve: exams created before ':' was rejected in
// IDs must stay fetchable — only the literal ":recalibrate" verb diverts.
func TestColonExamIDsStillResolve(t *testing.T) {
	store := calibratedFixture(t, 4)
	if err := store.AddExam(&bank.ExamRecord{ID: "fall:2026",
		ProblemIDs: []string{"aq01"}}); err != nil {
		t.Fatal(err)
	}
	eng := delivery.NewEngine(store, nil, 0)
	srv := httptest.NewServer(NewServer(eng, store, Options{}))
	defer srv.Close()
	var rec bank.ExamRecord
	code, raw := doJSON(t, http.MethodGet, srv.URL+"/v1/exams/fall:2026", nil, &rec)
	if code != http.StatusOK || rec.ID != "fall:2026" {
		t.Fatalf("legacy colon ID: %d %s", code, raw)
	}
	// New creations with ':' are rejected up front.
	code, raw = doJSON(t, http.MethodPost, srv.URL+"/v1/exams",
		&bank.ExamRecord{ID: "bad:id", ProblemIDs: []string{"aq01"}}, nil)
	wantEnvelope(t, code, raw, CodeValidation)
}
