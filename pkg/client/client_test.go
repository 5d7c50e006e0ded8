package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/delivery"
	"mineassess/internal/httpapi"
	"mineassess/internal/item"
)

// newLMS spins up a full /v1 server over an empty single-shard store.
func newLMS(t *testing.T) (*Client, *bank.Sharded) {
	t.Helper()
	store := bank.New()
	engine := delivery.NewEngine(store, nil, 4)
	srv := httptest.NewServer(httpapi.NewServer(engine, store, httpapi.Options{}))
	t.Cleanup(srv.Close)
	return New(srv.URL, WithLearnerID("sdk-test")), store
}

func seedExam(t *testing.T, c *Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%d", i+1), "SDK question",
			[]string{"w", "x", "y", "z"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.ConceptID = "c1"
		p.Level = cognition.Knowledge
		if err := c.CreateProblem(p); err != nil {
			t.Fatal(err)
		}
	}
	rec := &bank.ExamRecord{ID: "sdk", Title: "SDK exam"}
	for i := 0; i < n; i++ {
		rec.ProblemIDs = append(rec.ProblemIDs, fmt.Sprintf("q%d", i+1))
	}
	if err := c.CreateExam(rec); err != nil {
		t.Fatal(err)
	}
}

func TestSDKSessionRoundTrip(t *testing.T) {
	c, _ := newLMS(t)
	seedExam(t, c, 3)

	start, err := c.StartSession("sdk", "alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(start.Order) != 3 {
		t.Fatalf("order = %v", start.Order)
	}
	for _, pid := range start.Order {
		if err := c.Answer(start.SessionID, pid, "A"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Session(start.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Answered != 3 || st.StateName != "running" {
		t.Errorf("status = %+v", st)
	}
	snaps, err := c.Monitor(start.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 4 { // start + 3 answers
		t.Errorf("snapshots = %d", len(snaps))
	}
	rr, err := c.RTE(start.SessionID, httpapi.RTERequest{
		Method: "getvalue", Element: "cmi.core.student_id"})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Result != "alice" {
		t.Errorf("rte = %+v", rr)
	}
	res, err := c.Finish(start.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if res.StudentID != "alice" || len(res.Responses) != 3 {
		t.Errorf("result = %+v", res)
	}
	sums, err := c.SessionSummaries("sdk")
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].StateName != "finished" {
		t.Errorf("summaries = %+v", sums)
	}
	out, err := c.Results("sdk")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Students) != 1 {
		t.Errorf("results students = %d", len(out.Students))
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 {
		t.Error("metrics should have counted this traffic")
	}
}

func TestSDKTypedErrors(t *testing.T) {
	c, _ := newLMS(t)
	seedExam(t, c, 1)

	_, err := c.StartSession("ghost", "alice", 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %T %v, want *APIError", err, err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Code != httpapi.CodeExamNotFound {
		t.Errorf("apiErr = %+v", apiErr)
	}
	if apiErr.Error() == "" {
		t.Error("empty error string")
	}

	if err := c.DeleteProblem("ghost"); err == nil {
		t.Fatal("delete of missing problem should fail")
	} else if !errors.As(err, &apiErr) || apiErr.Code != httpapi.CodeProblemNotFound {
		t.Errorf("delete err = %v", err)
	}

	// Deleting the only problem an exam uses is legal bank semantics; the
	// SDK surfaces no error.
	if err := c.DeleteProblem("q1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteExam("sdk"); err != nil {
		t.Fatal(err)
	}
	exams, err := c.ListExams()
	if err != nil {
		t.Fatal(err)
	}
	if len(exams) != 0 {
		t.Errorf("exams = %v", exams)
	}
}

// TestSDKNonEnvelopeError: a proxy-style plain-text error still yields a
// usable APIError instead of a decode failure.
func TestSDKNonEnvelopeError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL)
	_, err := c.ListExams()
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %T %v", err, err)
	}
	if apiErr.Status != http.StatusBadGateway || apiErr.Message != "bad gateway" {
		t.Errorf("apiErr = %+v", apiErr)
	}
}

func TestSDKLearnerHeader(t *testing.T) {
	var got string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("X-Learner-ID")
		w.Write([]byte(`{"examIds":[]}`))
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithLearnerID("alice"))
	if _, err := c.ListExams(); err != nil {
		t.Fatal(err)
	}
	if got != "alice" {
		t.Errorf("X-Learner-ID = %q", got)
	}
}
