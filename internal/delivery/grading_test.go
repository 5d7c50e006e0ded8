package delivery

import (
	"context"
	"errors"
	"testing"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

// essayExamFixture: one essay + one MC problem, in a guarded store.
func essayExamFixture(t *testing.T) (bank.Storage, string) {
	t.Helper()
	s := bank.New()
	essay := &item.Problem{ID: "essay1", Style: item.Essay,
		Question: "Discuss assessment metadata.", Level: cognition.Evaluation}
	mc, err := item.NewMultipleChoice("mc1", "?", []string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc.Level = cognition.Knowledge
	for _, p := range []*item.Problem{essay, mc} {
		if err := s.AddProblem(p); err != nil {
			t.Fatal(err)
		}
	}
	rec := &bank.ExamRecord{ID: "essayexam", Title: "Essay exam",
		ProblemIDs: []string{"essay1", "mc1"}, Display: item.FixedOrder}
	if err := s.AddExam(rec); err != nil {
		t.Fatal(err)
	}
	return banktest.Guard(t, s), rec.ID
}

func TestManualGradingWorkflow(t *testing.T) {
	store, examID := essayExamFixture(t)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 0)
	sess, err := eng.Start(context.Background(), examID, "alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	if err := eng.Answer(context.Background(), sess.ID, "essay1", "Metadata lets systems exchange assessments."); err != nil {
		t.Fatal(err)
	}
	if err := eng.Answer(context.Background(), sess.ID, "mc1", "A"); err != nil {
		t.Fatal(err)
	}

	pending := eng.PendingGrades(examID)
	if len(pending) != 1 || pending[0].ProblemID != "essay1" {
		t.Fatalf("pending = %+v", pending)
	}
	if pending[0].Response == "" {
		t.Error("pending grade should carry the response text")
	}

	if err := eng.AssignGrade(sess.ID, "essay1", 0.75); err != nil {
		t.Fatalf("AssignGrade: %v", err)
	}
	res, err := eng.Finish(context.Background(), sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Responses {
		if r.ProblemID == "essay1" && r.Credit != 0.75 {
			t.Errorf("essay credit = %v, want 0.75", r.Credit)
		}
	}
	// Re-grading after finish is allowed; results reflect the new grade.
	if err := eng.AssignGrade(sess.ID, "essay1", 1); err != nil {
		t.Fatalf("re-grade: %v", err)
	}
	res2, err := eng.Finish(context.Background(), sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Responses[0].Credit != 1 {
		t.Errorf("re-graded credit = %v", res2.Responses[0].Credit)
	}
}

func TestAssignGradeErrors(t *testing.T) {
	store, examID := essayExamFixture(t)
	eng := NewEngine(store, newFakeClock().Now, 0)
	sess, err := eng.Start(context.Background(), examID, "bob", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AssignGrade(sess.ID, "essay1", 1.5); !errors.Is(err, ErrInvalidCredit) {
		t.Errorf("credit 1.5 = %v", err)
	}
	if err := eng.AssignGrade(sess.ID, "essay1", 0.5); !errors.Is(err, ErrNotAnswered) {
		t.Errorf("unanswered = %v", err)
	}
	if err := eng.Answer(context.Background(), sess.ID, "mc1", "A"); err != nil {
		t.Fatal(err)
	}
	if err := eng.AssignGrade(sess.ID, "mc1", 0.5); !errors.Is(err, ErrAutoGraded) {
		t.Errorf("auto-graded = %v", err)
	}
	if err := eng.AssignGrade("ghost", "essay1", 0.5); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("unknown session = %v", err)
	}
}

func TestSessionSummaries(t *testing.T) {
	store, examID := examFixture(t, false)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 0)
	s1, err := eng.Start(context.Background(), examID, "alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Start(context.Background(), examID, "bob", 1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Answer(context.Background(), s1.ID, "q1", "A"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(context.Background(), s1.ID); err != nil {
		t.Fatal(err)
	}
	sums := eng.SessionSummaries(examID)
	if len(sums) != 2 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if sums[0].StateName != "finished" || sums[1].StateName != "running" {
		t.Errorf("states = %s, %s", sums[0].StateName, sums[1].StateName)
	}
	if got := eng.SessionSummaries("other"); len(got) != 0 {
		t.Errorf("other exam summaries = %v", got)
	}
}
