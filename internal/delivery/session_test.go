package delivery

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
	"mineassess/internal/cognition"
	"mineassess/internal/events"
	"mineassess/internal/item"
	"mineassess/internal/scorm"
)

// fakeClock is a manually advanced clock.
type fakeClock struct {
	t time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2004, 3, 1, 9, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// examFixture stores 4 MC problems and an exam with a 10-minute limit, in
// a store guarded against in-place edits of its values.
func examFixture(t *testing.T, resumable bool) (bank.Storage, string) {
	t.Helper()
	s := bank.New()
	var ids []string
	for i := 0; i < 4; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%d", i+1), "?",
			[]string{"w", "x", "y", "z"}, 0) // correct A
		if err != nil {
			t.Fatal(err)
		}
		p.Level = cognition.Knowledge
		p.Resumable = resumable
		if err := s.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	rec := &bank.ExamRecord{ID: "exam1", Title: "Quiz", ProblemIDs: ids,
		Display: item.FixedOrder, TestTimeSeconds: 600}
	if err := s.AddExam(rec); err != nil {
		t.Fatal(err)
	}
	return banktest.Guard(t, s), rec.ID
}

func TestSessionLifecycle(t *testing.T) {
	store, examID := examFixture(t, false)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 16)

	sess, err := eng.Start(context.Background(), examID, "alice", 1)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if len(sess.Order) != 4 {
		t.Fatalf("order = %v", sess.Order)
	}

	clock.Advance(time.Minute)
	if err := eng.Answer(context.Background(), sess.ID, "q1", "A"); err != nil {
		t.Fatalf("Answer q1: %v", err)
	}
	clock.Advance(2 * time.Minute)
	if err := eng.Answer(context.Background(), sess.ID, "q2", "B"); err != nil {
		t.Fatalf("Answer q2: %v", err)
	}
	if err := eng.Answer(context.Background(), sess.ID, "q2", "C"); !errors.Is(err, ErrAlreadyAnswered) {
		t.Errorf("re-answer = %v, want ErrAlreadyAnswered", err)
	}
	if err := eng.Answer(context.Background(), sess.ID, "ghost", "A"); !errors.Is(err, ErrUnknownProblem) {
		t.Errorf("unknown problem = %v, want ErrUnknownProblem", err)
	}

	st, err := eng.Status(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Answered != 2 || st.Total != 4 || st.State != StateRunning {
		t.Errorf("status = %+v", st)
	}
	if st.RemainingSeconds != 420 { // 10m - 3m
		t.Errorf("remaining = %d, want 420", st.RemainingSeconds)
	}

	res, err := eng.Finish(context.Background(), sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 4 {
		t.Fatalf("responses = %d", len(res.Responses))
	}
	// q1 correct (A), q2 wrong (B), q3/q4 unanswered.
	if !res.Responses[0].Correct() || res.Responses[1].Correct() {
		t.Errorf("grading wrong: %+v", res.Responses[:2])
	}
	if res.Responses[0].TimeSpent != time.Minute {
		t.Errorf("q1 time = %v, want 1m", res.Responses[0].TimeSpent)
	}
	if res.Responses[2].Answered {
		t.Error("q3 should be unanswered")
	}
	// Finishing again is idempotent.
	res2, err := eng.Finish(context.Background(), sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Responses) != 4 {
		t.Error("idempotent finish broke result")
	}
}

// TestStatusRemainingSecondsRoundsUp: a running session with a sub-second
// remainder must not report RemainingSeconds == 0 — integer truncation used
// to show 0 while the session still accepted answers, so clients could not
// distinguish "about to expire" from "expired". Zero now uniquely means the
// clock has run out.
func TestStatusRemainingSecondsRoundsUp(t *testing.T) {
	store, examID := examFixture(t, false)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 0)
	sess, err := eng.Start(context.Background(), examID, "alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Burn the 10-minute limit down to 400ms.
	clock.Advance(10*time.Minute - 400*time.Millisecond)
	st, err := eng.Status(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning {
		t.Fatalf("state = %v, want running", st.State)
	}
	if st.RemainingSeconds != 1 {
		t.Errorf("RemainingSeconds = %d, want 1 (400ms left rounds up)", st.RemainingSeconds)
	}
	// The session genuinely is still live: an answer lands.
	if err := eng.Answer(context.Background(), sess.ID, "q1", "A"); err != nil {
		t.Fatalf("answer with time on the clock: %v", err)
	}
	// Once the limit passes, 0 appears together with the expired state.
	clock.Advance(time.Second)
	st, err = eng.Status(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateExpired || st.RemainingSeconds != 0 {
		t.Errorf("after expiry: state = %v remaining = %d, want expired/0",
			st.State, st.RemainingSeconds)
	}

	// The boundary itself is exhausted time: a session at exactly its
	// limit is expired, never "running with 0 seconds left".
	sess2, err := eng.Start(context.Background(), examID, "brinkman", 2)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Minute)
	st, err = eng.Status(sess2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateExpired || st.RemainingSeconds != 0 {
		t.Errorf("at exact limit: state = %v remaining = %d, want expired/0",
			st.State, st.RemainingSeconds)
	}
}

func TestSessionTimeExpiry(t *testing.T) {
	store, examID := examFixture(t, false)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 0)
	sess, err := eng.Start(context.Background(), examID, "bob", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Answer(context.Background(), sess.ID, "q1", "A"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(11 * time.Minute) // past the 10-minute limit
	if err := eng.Answer(context.Background(), sess.ID, "q2", "A"); !errors.Is(err, ErrTimeExpired) {
		t.Fatalf("late answer = %v, want ErrTimeExpired", err)
	}
	st, err := eng.Status(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateExpired {
		t.Errorf("state = %v, want expired", st.State)
	}
	// An expired session still yields a result with what was answered.
	res, err := eng.Finish(context.Background(), sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Responses[0]; !got.Correct() {
		t.Error("pre-expiry answer lost")
	}
}

func TestPauseResumeExcludesPausedTime(t *testing.T) {
	store, examID := examFixture(t, true)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 0)
	sess, err := eng.Start(context.Background(), examID, "carol", 1)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	if err := eng.Pause(sess.ID); err != nil {
		t.Fatalf("Pause: %v", err)
	}
	if err := eng.Answer(context.Background(), sess.ID, "q1", "A"); !errors.Is(err, ErrSessionNotActive) {
		t.Errorf("answer while paused = %v, want ErrSessionNotActive", err)
	}
	if err := eng.Pause(sess.ID); !errors.Is(err, ErrSessionNotActive) {
		t.Errorf("double pause = %v", err)
	}
	// A paused session reports the remainder it would resume with — 0 is
	// reserved for an exhausted clock, and the pause stops the clock.
	clock.Advance(30 * time.Minute) // a long break, beyond the 10m limit
	if st, err := eng.Status(sess.ID); err != nil || st.RemainingSeconds != 480 {
		t.Errorf("paused status = %+v, %v; want 480s remaining", st, err)
	}
	if err := eng.Resume(sess.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := eng.Resume(sess.ID); !errors.Is(err, ErrNotPaused) {
		t.Errorf("double resume = %v", err)
	}
	// Only 2 active minutes have passed: the session must still be alive.
	if err := eng.Answer(context.Background(), sess.ID, "q1", "A"); err != nil {
		t.Fatalf("answer after resume: %v", err)
	}
	st, err := eng.Status(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning {
		t.Errorf("state = %v", st.State)
	}
	if st.RemainingSeconds != 480 { // 10m - 2m
		t.Errorf("remaining = %d, want 480", st.RemainingSeconds)
	}
}

func TestPauseRequiresResumableProblems(t *testing.T) {
	store, examID := examFixture(t, false)
	eng := NewEngine(store, newFakeClock().Now, 0)
	sess, err := eng.Start(context.Background(), examID, "dan", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Pause(sess.ID); !errors.Is(err, ErrNotResumable) {
		t.Errorf("pause = %v, want ErrNotResumable", err)
	}
}

func TestFinishWritesCMI(t *testing.T) {
	store, examID := examFixture(t, false)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 0)
	sess, err := eng.Start(context.Background(), examID, "eve", 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 of 4 correct = 75% -> passed.
	for _, q := range []string{"q1", "q2", "q3"} {
		clock.Advance(time.Minute)
		if err := eng.Answer(context.Background(), sess.ID, q, "A"); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Minute)
	if err := eng.Answer(context.Background(), sess.ID, "q4", "B"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
		t.Fatal(err)
	}
	if err := eng.RTEExec(sess.ID, func(api *scorm.API) {
		if api.Running() {
			t.Error("RTE should be finished")
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Inspect via a fresh snapshot: the engine wrote score and status
	// before LMSFinish, visible through the session's data model.
	// (LMSGetValue is unavailable after finish per the state machine.)
}

func TestCollectResultsFeedsAnalysis(t *testing.T) {
	store, examID := examFixture(t, false)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 0)
	// 8 students of descending skill: student i answers i questions
	// correctly.
	for i := 0; i < 8; i++ {
		sess, err := eng.Start(context.Background(), examID, fmt.Sprintf("s%d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 4; q++ {
			opt := "B" // wrong
			if q < i/2 {
				opt = "A"
			}
			clock.Advance(30 * time.Second)
			if err := eng.Answer(context.Background(), sess.ID, fmt.Sprintf("q%d", q+1), opt); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Students) != 8 {
		t.Fatalf("students = %d, want 8", len(res.Students))
	}
	if res.TestTime != 10*time.Minute {
		t.Errorf("TestTime = %v", res.TestTime)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("collected result invalid: %v", err)
	}
	if _, err := analysis.Analyze(res, analysis.Options{}); err != nil {
		t.Fatalf("analysis over collected results: %v", err)
	}
}

func TestCollectResultsSkipsOpenSessions(t *testing.T) {
	store, examID := examFixture(t, false)
	eng := NewEngine(store, newFakeClock().Now, 0)
	if _, err := eng.Start(context.Background(), examID, "open", 1); err != nil {
		t.Fatal(err)
	}
	res, err := eng.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Students) != 0 {
		t.Errorf("open sessions must not appear in results: %d", len(res.Students))
	}
}

// TestCollectResultsExpiresAbandonedSittings: a 10-minute sitting
// abandoned after one answer reaches the export once its limit has passed,
// without anyone reading it first, as an expired row holding its one
// answer beside the sitting that finished. A second export publishes no
// second session.expired.
func TestCollectResultsExpiresAbandonedSittings(t *testing.T) {
	store, examID := examFixture(t, false)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 0)
	bus := events.NewBus(events.Options{Now: clock.Now})
	defer bus.Close()
	eng.SetEventBus(bus)
	ctx := context.Background()

	done, err := eng.Start(ctx, examID, "finisher", 1)
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q <= 4; q++ {
		clock.Advance(time.Minute)
		if err := eng.Answer(ctx, done.ID, fmt.Sprintf("q%d", q), "A"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Finish(ctx, done.ID); err != nil {
		t.Fatal(err)
	}
	gone, err := eng.Start(ctx, examID, "quitter", 1)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	if err := eng.Answer(ctx, gone.ID, "q1", "A"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)

	for export := 1; export <= 2; export++ {
		res, err := eng.CollectResults(examID)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Students) != 2 {
			t.Fatalf("export %d holds %d students, want the finished and the abandoned sitting", export, len(res.Students))
		}
		for _, st := range res.Students {
			want := 4
			if st.StudentID == "quitter" {
				want = 1
				if r := st.Responses[0]; r.ProblemID != "q1" || !r.Correct() {
					t.Errorf("export %d: the abandoned sitting's answer is %+v, want q1 correct", export, r)
				}
			}
			if got := st.AnsweredCount(); got != want || len(st.Responses) != 4 {
				t.Errorf("export %d: %s has %d of %d responses answered, want %d of 4",
					export, st.StudentID, got, len(st.Responses), want)
			}
		}
	}
	if st, err := eng.Status(gone.ID); err != nil || st.State != StateExpired {
		t.Errorf("abandoned sitting status = %+v, %v; want expired", st, err)
	}
	sub := bus.Subscribe(events.SubscribeOptions{ExamID: examID, Replay: true})
	defer sub.Close()
	expired := 0
	for _, ev := range sub.Take(nil) {
		if ev.Type == events.SessionExpired {
			expired++
			if ev.SessionID != gone.ID || ev.Answered != 1 {
				t.Errorf("session.expired for %s with %d answered, want %s with 1", ev.SessionID, ev.Answered, gone.ID)
			}
		}
	}
	if expired != 1 {
		t.Errorf("two exports published %d session.expired events, want 1", expired)
	}
}

func TestStartErrors(t *testing.T) {
	store, _ := examFixture(t, false)
	eng := NewEngine(store, nil, 0)
	if _, err := eng.Start(context.Background(), "ghost", "x", 1); !errors.Is(err, bank.ErrExamNotFound) {
		t.Errorf("unknown exam = %v", err)
	}
	if _, err := eng.Status("nope"); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("unknown session = %v", err)
	}
	if _, err := eng.Finish(context.Background(), "nope"); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("finish unknown = %v", err)
	}
	if err := eng.Resume("nope"); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("resume unknown = %v", err)
	}
}

// TestRandomOrderShufflesOptions: a RandomOrder exam presents options in a
// per-sitting order; the presented correct key earns credit, and collected
// results report the authored key.
func TestRandomOrderShufflesOptions(t *testing.T) {
	store, _ := examFixture(t, false)
	rec := &bank.ExamRecord{ID: "rand", Title: "Shuffled",
		ProblemIDs: []string{"q1", "q2", "q3", "q4"}, Display: item.RandomOrder}
	if err := store.AddExam(rec); err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 0)

	// Find a seed that presents q1's correct option "w" under another key
	// than its authored A.
	var sess *Session
	var shuffledKey string
	for seed := int64(1); seed < 50; seed++ {
		s, err := eng.Start(context.Background(), "rand", fmt.Sprintf("stu%d", seed), seed)
		if err != nil {
			t.Fatal(err)
		}
		presented := s.PresentedOptions()
		if len(presented) != 4 {
			t.Fatalf("seed %d presents %d problems' options, want 4", seed, len(presented))
		}
		for _, o := range presented["q1"] {
			if o.Text == "w" && o.Key != "A" {
				sess, shuffledKey = s, o.Key
			}
		}
		if sess != nil {
			break
		}
	}
	if sess == nil {
		t.Fatal("no seed moved q1's correct option away from A in 50 tries")
	}
	// Answer q1 with the presented correct key, and q2 with A, which is
	// wrong unless the sitting presents q2's correct option first.
	if err := eng.Answer(context.Background(), sess.ID, "q1", shuffledKey); err != nil {
		t.Fatal(err)
	}
	if err := eng.Answer(context.Background(), sess.ID, "q2", "A"); err != nil {
		t.Fatal(err)
	}
	q2Correct := sess.PresentedOptions()["q2"][0].Text == "w"
	res, err := eng.Finish(context.Background(), sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Responses {
		switch r.ProblemID {
		case "q1":
			if !r.Correct() {
				t.Error("shuffled correct answer should earn credit")
			}
			// The collected option must be the authored key A.
			if r.Option != "A" {
				t.Errorf("collected option = %q, want authored key A", r.Option)
			}
		case "q2":
			if r.Correct() != q2Correct {
				t.Errorf("q2 answered A: correct = %v, want %v", r.Correct(), q2Correct)
			}
		}
	}
}

// TestRandomOrderGradesOnlyPresentedKeys: a sitting that permutes a
// problem's options grades only the keys it presented. An authored key it
// never showed earns nothing, and the result reports the response given.
func TestRandomOrderGradesOnlyPresentedKeys(t *testing.T) {
	s := bank.New()
	p := &item.Problem{ID: "k1", Style: item.MultipleChoice, Question: "?",
		Level: cognition.Knowledge, Answer: "y", Options: []item.Option{
			{Key: "x", Text: "wrong"}, {Key: "y", Text: "right"}, {Key: "z", Text: "also wrong"}}}
	if err := s.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	if err := s.AddExam(&bank.ExamRecord{ID: "keys", ProblemIDs: []string{"k1"},
		Display: item.RandomOrder}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(banktest.Guard(t, s), newFakeClock().Now, 0)
	answer := func(seed int64, response func(*Session) string) analysis.Response {
		t.Helper()
		sess, err := eng.Start(context.Background(), "keys", "stu", seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Answer(context.Background(), sess.ID, "k1", response(sess)); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Finish(context.Background(), sess.ID)
		if err != nil {
			t.Fatal(err)
		}
		return res.Responses[0]
	}
	if r := answer(1, func(*Session) string { return "y" }); r.Credit != 0 || r.Option != "y" {
		t.Errorf("unpresented authored key: credit %v, option %q; want 0 and the response y", r.Credit, r.Option)
	}
	presented := func(sess *Session) string {
		for _, o := range sess.PresentedOptions()["k1"] {
			if o.Text == "right" {
				return o.Key
			}
		}
		t.Fatal("the correct option is not presented")
		return ""
	}
	if r := answer(2, presented); r.Credit != 1 || r.Option != "y" {
		t.Errorf("presented correct key: credit %v, option %q; want 1 and the authored key y", r.Credit, r.Option)
	}
}

func TestFixedOrderDoesNotShuffleOptions(t *testing.T) {
	store, examID := examFixture(t, false)
	eng := NewEngine(store, newFakeClock().Now, 0)
	sess, err := eng.Start(context.Background(), examID, "plain", 77)
	if err != nil {
		t.Fatal(err)
	}
	if sess.perms != nil || sess.PresentedOptions() != nil {
		t.Errorf("fixed-order exam permutes options: %v", sess.perms)
	}
	stored, err := store.Problem("q1")
	if err != nil {
		t.Fatal(err)
	}
	if sess.problems["q1"] != stored {
		t.Error("a sitting must keep the stored problem, not a copy")
	}
}

func TestSessionStateString(t *testing.T) {
	names := map[SessionState]string{
		StateRunning:    "running",
		StatePaused:     "paused",
		StateFinished:   "finished",
		StateExpired:    "expired",
		SessionState(9): "state(9)",
	}
	for st, want := range names {
		if got := st.String(); got != want {
			t.Errorf("%d = %q, want %q", int(st), got, want)
		}
	}
}
