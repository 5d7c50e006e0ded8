package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mineassess/internal/analysis"
	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/internal/wal"
)

func mustProblem(t *testing.T, id string, concept string, level cognition.Level) *item.Problem {
	t.Helper()
	p, err := item.NewMultipleChoice(id, "Authored over HTTP: "+id,
		[]string{"w", "x", "y", "z"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.ConceptID = concept
	p.Level = level
	return p
}

func TestProblemCRUD(t *testing.T) {
	srv, _ := serverOver(t, banktest.Guard(t, bank.New()))
	base := srv.URL

	// Create.
	p := mustProblem(t, "p1", "c1", cognition.Knowledge)
	if code, raw := doJSON(t, http.MethodPost, base+"/v1/problems", p, nil); code != http.StatusCreated {
		t.Fatalf("create = %d %s", code, raw)
	}
	// Duplicate -> 409 PROBLEM_EXISTS.
	code, raw := doJSON(t, http.MethodPost, base+"/v1/problems", p, nil)
	wantEnvelope(t, code, raw, CodeProblemExists)
	// Invalid payload (MC with no options) -> 400 VALIDATION_FAILED.
	bad := &item.Problem{ID: "bad", Style: item.MultipleChoice, Question: "?",
		Level: cognition.Knowledge}
	code, raw = doJSON(t, http.MethodPost, base+"/v1/problems", bad, nil)
	wantEnvelope(t, code, raw, CodeValidation)
	// An ID with '/' could never be addressed by /v1/problems/{id} -> 400.
	code, raw = doJSON(t, http.MethodPost, base+"/v1/problems",
		mustProblem(t, "algebra/q1", "c1", cognition.Knowledge), nil)
	wantEnvelope(t, code, raw, CodeValidation)

	// Read.
	var got item.Problem
	if code, _ := doJSON(t, http.MethodGet, base+"/v1/problems/p1", nil, &got); code != http.StatusOK || got.ID != "p1" {
		t.Fatalf("get = %d %+v", code, got)
	}
	code, raw = doJSON(t, http.MethodGet, base+"/v1/problems/ghost", nil, nil)
	wantEnvelope(t, code, raw, CodeProblemNotFound)

	// Update; body/URL ID mismatch is a 400.
	got.Question = "Clarified"
	if code, raw := doJSON(t, http.MethodPut, base+"/v1/problems/p1", &got, nil); code != http.StatusOK {
		t.Fatalf("update = %d %s", code, raw)
	}
	code, raw = doJSON(t, http.MethodPut, base+"/v1/problems/other", &got, nil)
	wantEnvelope(t, code, raw, CodeBadRequest)

	// List with a search filter.
	var list ProblemList
	if code, _ := doJSON(t, http.MethodGet, base+"/v1/problems?keyword=clarified", nil, &list); code != http.StatusOK {
		t.Fatal("list failed")
	}
	if list.Total != 1 || list.Problems[0].ID != "p1" {
		t.Errorf("list = %+v", list)
	}
	// Bad filter values are typed 400s.
	code, raw = doJSON(t, http.MethodGet, base+"/v1/problems?level=Z9", nil, nil)
	wantEnvelope(t, code, raw, CodeBadRequest)
	code, raw = doJSON(t, http.MethodGet, base+"/v1/problems?limit=-1", nil, nil)
	wantEnvelope(t, code, raw, CodeBadRequest)
	// An empty result is JSON [], never null.
	if _, raw := doJSON(t, http.MethodGet, base+"/v1/problems?keyword=nomatch", nil, nil); !strings.Contains(string(raw), `"problems":[]`) {
		t.Errorf("empty search body = %s, want problems:[]", raw)
	}

	// Delete, then the resource is gone.
	if code, _ := doJSON(t, http.MethodDelete, base+"/v1/problems/p1", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete = %d", code)
	}
	code, raw = doJSON(t, http.MethodDelete, base+"/v1/problems/p1", nil, nil)
	wantEnvelope(t, code, raw, CodeProblemNotFound)
}

func TestExamCRUD(t *testing.T) {
	store := banktest.Guard(t, bank.New())
	srv, _ := serverOver(t, store)
	base := srv.URL
	for i, id := range []string{"p1", "p2"} {
		if err := store.AddProblem(mustProblem(t, id, "c1", cognition.Levels()[i])); err != nil {
			t.Fatal(err)
		}
	}

	rec := &bank.ExamRecord{ID: "e1", Title: "Exam 1", ProblemIDs: []string{"p1", "p2"}}
	if code, raw := doJSON(t, http.MethodPost, base+"/v1/exams", rec, nil); code != http.StatusCreated {
		t.Fatalf("create = %d %s", code, raw)
	}
	// Duplicate -> 409; dangling reference -> 400 VALIDATION (the payload
	// is defective, no /v1/problems resource was addressed).
	code, raw := doJSON(t, http.MethodPost, base+"/v1/exams", rec, nil)
	wantEnvelope(t, code, raw, CodeExamExists)
	dangling := &bank.ExamRecord{ID: "e2", ProblemIDs: []string{"ghost"}}
	code, raw = doJSON(t, http.MethodPost, base+"/v1/exams", dangling, nil)
	wantEnvelope(t, code, raw, CodeValidation)
	slashed := &bank.ExamRecord{ID: "a/b", ProblemIDs: []string{"p1"}}
	code, raw = doJSON(t, http.MethodPost, base+"/v1/exams", slashed, nil)
	wantEnvelope(t, code, raw, CodeValidation)

	var got bank.ExamRecord
	if code, _ := doJSON(t, http.MethodGet, base+"/v1/exams/e1", nil, &got); code != http.StatusOK || got.Title != "Exam 1" {
		t.Fatalf("get = %d %+v", code, got)
	}
	if got.Display != item.FixedOrder {
		t.Errorf("display not defaulted: %v", got.Display)
	}

	var list ExamList
	if code, _ := doJSON(t, http.MethodGet, base+"/v1/exams", nil, &list); code != http.StatusOK {
		t.Fatal("list failed")
	}
	if len(list.ExamIDs) != 1 || list.ExamIDs[0] != "e1" {
		t.Errorf("list = %+v", list)
	}

	if code, _ := doJSON(t, http.MethodDelete, base+"/v1/exams/e1", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete failed")
	}
	code, raw = doJSON(t, http.MethodGet, base+"/v1/exams/e1", nil, nil)
	wantEnvelope(t, code, raw, CodeExamNotFound)
}

// TestCreateExamRejectsDuplicateProblem: an exam that lists a problem twice
// would deliver and score it twice, so POST /v1/exams refuses it as a
// draft would, and stores nothing.
func TestCreateExamRejectsDuplicateProblem(t *testing.T) {
	store := banktest.Guard(t, bank.New())
	srv, _ := serverOver(t, store)
	for _, id := range []string{"p1", "p2"} {
		if err := store.AddProblem(mustProblem(t, id, "c1", cognition.Knowledge)); err != nil {
			t.Fatal(err)
		}
	}
	dup := &bank.ExamRecord{ID: "dup", ProblemIDs: []string{"p1", "p2", "p1"}}
	code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/exams", dup, nil)
	wantEnvelope(t, code, raw, CodeValidation)
	if !strings.Contains(string(raw), "p1") {
		t.Errorf("envelope does not name the repeated problem: %s", raw)
	}
	code, raw = doJSON(t, http.MethodGet, srv.URL+"/v1/exams/dup", nil, nil)
	wantEnvelope(t, code, raw, CodeExamNotFound)
}

func TestAssembleExam(t *testing.T) {
	store := banktest.Guard(t, bank.New())
	srv, _ := serverOver(t, store)
	base := srv.URL
	for _, id := range []string{"k1", "k2", "k3"} {
		if err := store.AddProblem(mustProblem(t, id, "c1", cognition.Knowledge)); err != nil {
			t.Fatal(err)
		}
	}

	// Underfilled bank -> 422 with per-cell details.
	code, raw := doJSON(t, http.MethodPost, base+"/v1/exams:assemble", AssembleExamRequest{
		ID: "big", Require: []BlueprintCell{
			{ConceptID: "c1", Level: cognition.Knowledge, Count: 9},
		}}, nil)
	wantEnvelope(t, code, raw, CodeBlueprintShortfall)
	var e Error
	mustUnmarshal(t, raw, &e)
	if e.Details["shortfalls"] == nil {
		t.Errorf("details = %v, want shortfall cells", e.Details)
	}

	// Satisfiable blueprint stores the exam and returns the record.
	var out AssembleExamResponse
	code, raw = doJSON(t, http.MethodPost, base+"/v1/exams:assemble", AssembleExamRequest{
		ID: "bp", Title: "Blueprint exam", TestTimeSeconds: 1200,
		Require: []BlueprintCell{
			{ConceptID: "c1", Level: cognition.Knowledge, Count: 2},
		}}, &out)
	if code != http.StatusCreated {
		t.Fatalf("assemble = %d %s", code, raw)
	}
	if out.Exam == nil || len(out.Exam.ProblemIDs) != 2 || out.Exam.TestTimeSeconds != 1200 {
		t.Fatalf("assembled = %+v", out.Exam)
	}
	if _, err := store.Exam("bp"); err != nil {
		t.Errorf("exam not stored: %v", err)
	}

	// Validation failures are typed 400s.
	code, raw = doJSON(t, http.MethodPost, base+"/v1/exams:assemble",
		AssembleExamRequest{Require: []BlueprintCell{{ConceptID: "c1", Level: 1, Count: 1}}}, nil)
	wantEnvelope(t, code, raw, CodeBadRequest) // missing ID
	code, raw = doJSON(t, http.MethodPost, base+"/v1/exams:assemble",
		AssembleExamRequest{ID: "x"}, nil)
	wantEnvelope(t, code, raw, CodeBadRequest) // empty blueprint
}

func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
}

// journalServer serves a fresh engine over the journal in dir, in a
// guarded store.
func journalServer(t *testing.T, dir string) (*httptest.Server, *bank.Journal) {
	t.Helper()
	j, err := bank.OpenJournal(dir, bank.NewSharded(0), bank.JournalOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	srv, _ := serverOver(t, banktest.Guard(t, j))
	return srv, j
}

// TestQuestionnaireWithoutLevelRoundTrips: a questionnaire needs no
// cognition level (§3.3 I). One authored without a level is stored and
// journaled, reads back over GET, leaves the journal writing, survives a
// close and reopen, and reaches the export of a sitting that answered it.
func TestQuestionnaireWithoutLevelRoundTrips(t *testing.T) {
	dir := t.TempDir()
	srv, j := journalServer(t, dir)
	survey := json.RawMessage(`{"id":"sv","style":"Questionnaire","question":"How was it?"}`)
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/problems", survey, nil); code != http.StatusCreated {
		t.Fatalf("create questionnaire = %d %s", code, raw)
	}
	code, raw := doJSON(t, http.MethodGet, srv.URL+"/v1/problems/sv", nil, nil)
	if code != http.StatusOK || strings.Contains(string(raw), `"level"`) {
		t.Fatalf("get questionnaire = %d %s, want 200 without a level", code, raw)
	}
	// The journal still accepts writes.
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/problems",
		mustProblem(t, "mc", "c1", cognition.Knowledge), nil); code != http.StatusCreated {
		t.Fatalf("create after the questionnaire = %d %s", code, raw)
	}
	exam := &bank.ExamRecord{ID: "survey", Title: "Survey", ProblemIDs: []string{"mc", "sv"}}
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/exams", exam, nil); code != http.StatusCreated {
		t.Fatalf("create exam = %d %s", code, raw)
	}
	sr := startV1(t, srv.URL, exam.ID, "alice")
	for pid, resp := range map[string]string{"mc": "A", "sv": "Fine"} {
		if code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+sr.SessionID+":answer",
			AnswerRequest{ProblemID: pid, Response: resp}, nil); code != http.StatusOK {
			t.Fatalf("answer %s = %d %s", pid, code, raw)
		}
	}
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+sr.SessionID+":finish", nil, nil); code != http.StatusOK {
		t.Fatalf("finish = %d %s", code, raw)
	}
	code, raw = doJSON(t, http.MethodGet, srv.URL+"/v1/exams/survey/results", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("export = %d %s", code, raw)
	}
	res, err := analysis.ReadResult(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("export %s: %v", raw, err)
	}
	if p := res.Problem("sv"); p == nil || p.Style != item.Questionnaire || p.Level != 0 {
		t.Errorf("exported questionnaire = %+v", p)
	}
	if r := res.Students[0].Responses[1]; r.ProblemID != "sv" || r.Option != "Fine" {
		t.Errorf("exported questionnaire response = %+v", r)
	}

	srv.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := bank.OpenJournal(dir, bank.NewSharded(0), bank.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	p, err := reopened.Problem("sv")
	if err != nil || p.Style != item.Questionnaire || p.Level != 0 || p.Question != "How was it?" {
		t.Fatalf("reopened questionnaire = %+v, %v", p, err)
	}
	if _, err := reopened.Exam("survey"); err != nil {
		t.Fatalf("reopened exam: %v", err)
	}
}

// TestClosedJournalAnswersInternal: once the journal has stopped
// persisting, a valid write is the server's failure, 500 INTERNAL with the
// message redacted, not the client's 400.
func TestClosedJournalAnswersInternal(t *testing.T) {
	srv, j := journalServer(t, t.TempDir())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/problems",
		mustProblem(t, "p1", "c1", cognition.Knowledge), nil)
	wantEnvelope(t, code, raw, CodeInternal)
	if strings.Contains(string(raw), "journal") {
		t.Errorf("envelope %s leaks the internal error", raw)
	}
}
