package delivery

import (
	"context"
	"errors"
	"reflect"
	"slices"
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

// addTimedEssayExam stores the essay fixture's problems as a second exam
// with a one-minute limit.
func addTimedEssayExam(t *testing.T, store bank.Storage) string {
	t.Helper()
	rec := &bank.ExamRecord{ID: "timedessay", Title: "Timed essay exam",
		ProblemIDs: []string{"essay1", "mc1"}, Display: item.FixedOrder, TestTimeSeconds: 60}
	if err := store.AddExam(rec); err != nil {
		t.Fatal(err)
	}
	return rec.ID
}

// TestResultRowSharedAndReplaced: a sitting builds its result row once,
// when it ends, and hands that row out shared. Finish, a re-finish and
// CollectResults return one row, the same backing array; an expired
// sitting's row exists from its expiry; and a grade after the end replaces
// the row, so the row an earlier reply holds still reads what it read while
// the next export carries the new credit.
func TestResultRowSharedAndReplaced(t *testing.T) {
	ctx := context.Background()
	store, examID := essayExamFixture(t)
	timedID := addTimedEssayExam(t, store)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 0)

	sess, err := eng.Start(ctx, examID, "alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if err := eng.Answer(ctx, sess.ID, "essay1", "an essay"); err != nil {
		t.Fatal(err)
	}
	reply, err := eng.Finish(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	again, err := eng.Finish(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	collected, err := eng.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	if len(collected.Students) != 1 {
		t.Fatalf("collected %d students, want 1", len(collected.Students))
	}
	first := &reply.Responses[0]
	if &again.Responses[0] != first || &collected.Students[0].Responses[0] != first {
		t.Error("Finish, a re-finish and CollectResults built separate rows, want one shared row")
	}

	late, err := eng.Start(ctx, timedID, "bob", 1)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	if st, err := eng.Status(late.ID); err != nil || st.State != StateExpired {
		t.Fatalf("status = %+v, %v; want expired", st, err)
	}
	late.mu.Lock()
	expiredRow := late.row
	late.mu.Unlock()
	if expiredRow == nil {
		t.Fatal("the expired sitting has no row")
	}
	if res, err := eng.Finish(ctx, late.ID); err != nil || res != expiredRow {
		t.Errorf("Finish of the expired sitting = %p, %v; want the row built at expiry %p", res, err, expiredRow)
	}

	before := slices.Clone(reply.Responses)
	if err := eng.AssignGrade(sess.ID, "essay1", 0.75); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reply.Responses, before) {
		t.Errorf("a grade edited the row an earlier Finish returned: %+v, was %+v", reply.Responses, before)
	}
	regraded, err := eng.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	if r := regraded.Students[0].Responses[0]; r.ProblemID != "essay1" || r.Credit != 0.75 {
		t.Errorf("the export after the grade carries %+v, want essay1 at credit 0.75", r)
	}
	if &regraded.Students[0].Responses[0] == first {
		t.Error("the export after the grade reads the old row")
	}
}
