package mineassess

// Integration tests: the complete learning cycle across modules — author
// into the bank, deliver over the HTTP LMS, collect the response matrix,
// run the analysis model, generate feedback, fix a flagged problem, and
// exchange the exam via SCORM and QTI.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/cognition"
	"mineassess/internal/core"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/feedback"
	"mineassess/internal/httpapi"
	"mineassess/internal/item"
	"mineassess/internal/livestats"
	"mineassess/internal/qti"
	"mineassess/internal/scorm"
	"mineassess/internal/simulate"
	"mineassess/internal/stats"
	"mineassess/pkg/api"
	"mineassess/pkg/client"
)

// authorCourse builds a bank with 8 problems over 2 concepts and one exam.
// It authors over the sharded backend so every integration path below runs
// on the production storage arrangement.
func authorCourse(t *testing.T) (bank.Storage, string) {
	t.Helper()
	return authorCourseInto(t, bank.NewSharded(8))
}

func authorCourseInto(t *testing.T, store bank.Storage) (bank.Storage, string) {
	t.Helper()
	var ids []string
	for i := 0; i < 8; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%d", i+1),
			fmt.Sprintf("Integration question %d", i+1),
			[]string{"w", "x", "y", "z"}, 0) // correct A
		if err != nil {
			t.Fatal(err)
		}
		p.ConceptID = fmt.Sprintf("c%d", i%2+1)
		p.Level = cognition.Levels()[i%3]
		if err := store.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	draft := authoring.NewExamDraft("integ", "Integration exam")
	if err := draft.Add(ids...); err != nil {
		t.Fatal(err)
	}
	draft.TestTime = time.Hour
	rec, err := draft.Finalize(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AddExam(rec); err != nil {
		t.Fatal(err)
	}
	return store, rec.ID
}

type httpClock struct{ t time.Time }

func (c *httpClock) now() time.Time { return c.t }

// TestFullLoopOverHTTP drives 12 students through the /v1 LMS with the
// typed Go SDK, collects results, analyzes them, and produces feedback.
func TestFullLoopOverHTTP(t *testing.T) {
	store, examID := authorCourse(t)
	clock := &httpClock{t: time.Date(2004, 4, 1, 9, 0, 0, 0, time.UTC)}
	engine := delivery.NewEngine(store, clock.now, 8)
	srv := httptest.NewServer(httpapi.NewServer(engine, store, httpapi.Options{}))
	defer srv.Close()

	// Student s answers the first s questions correctly (A), the rest B.
	for s := 0; s < 12; s++ {
		student := fmt.Sprintf("s%02d", s)
		c := client.New(srv.URL, client.WithLearnerID(student))
		started, err := c.StartSession(examID, student, 0)
		if err != nil {
			t.Fatalf("start %d: %v", s, err)
		}
		for qi, pid := range started.Order {
			opt := "B"
			if qi < s {
				opt = "A"
			}
			clock.t = clock.t.Add(30 * time.Second)
			if err := c.Answer(started.SessionID, pid, opt); err != nil {
				t.Fatalf("answer: %v", err)
			}
		}
		if _, err := c.Finish(started.SessionID); err != nil {
			t.Fatalf("finish: %v", err)
		}
	}

	res, err := engine.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Students) != 12 {
		t.Fatalf("students = %d", len(res.Students))
	}
	a, err := analysis.Analyze(res, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The ladder answering pattern makes later questions harder: their
	// group-difficulty must be non-increasing question over question.
	for i := 1; i < len(a.Questions); i++ {
		if a.Questions[i].P > a.Questions[i-1].P+1e-9 {
			t.Errorf("P should not increase: q%d %.2f -> q%d %.2f",
				i, a.Questions[i-1].P, i+1, a.Questions[i].P)
		}
	}

	st, err := stats.Compute(res)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scores.N != 12 {
		t.Errorf("stats N = %d", st.Scores.N)
	}
	fb, err := feedback.Build(res, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb.Students) != 12 {
		t.Errorf("feedback students = %d", len(fb.Students))
	}
	// Students s08..s11 all answered every question; the tie breaks by ID.
	if fb.Students[0].Score != 8 || fb.Students[0].StudentID != "s08" {
		t.Errorf("top student = %s (%.0f), want s08 with 8",
			fb.Students[0].StudentID, fb.Students[0].Score)
	}
}

// TestFixLoopWithHistory: analysis flags a problem, the instructor fixes
// it, the bank keeps the previous version.
func TestFixLoopWithHistory(t *testing.T) {
	store, examID := authorCourse(t)
	pipe := core.New()
	// Transplant the authored bank into a pipeline by re-adding.
	for _, id := range store.ProblemIDs() {
		p, err := store.Problem(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.Store().AddProblem(p); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := store.Exam(examID)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Store().AddExam(rec); err != nil {
		t.Fatal(err)
	}

	res, err := pipe.RunSimulated(examID, core.SimulationConfig{
		Class: simulate.PopulationConfig{N: 44, SD: 1, Seed: 12},
		Seed:  13,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pipe.Analyze(res, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.ApplyMeasurements(a); err != nil {
		t.Fatal(err)
	}
	// ApplyMeasurements is an update: every problem gained a revision.
	if got := pipe.Store().Version("q1"); got != 2 {
		t.Errorf("version after measurement = %d, want 2", got)
	}
	// Fix a question's wording, then roll it back. The bank shares the
	// stored problem with every reader, so the fix edits a copy.
	stored, err := pipe.Store().Problem("q1")
	if err != nil {
		t.Fatal(err)
	}
	p := stored.Clone()
	p.Question = "Clarified wording"
	if err := pipe.Store().UpdateProblem(p); err != nil {
		t.Fatal(err)
	}
	restored, err := pipe.Store().Rollback("q1")
	if err != nil {
		t.Fatal(err)
	}
	if restored.Question == "Clarified wording" {
		t.Error("rollback should restore the earlier wording")
	}
}

// TestExchangeRoundTrip: SCORM out, QTI out, QTI back in, and the imported
// problems survive a simulated administration.
func TestExchangeRoundTrip(t *testing.T) {
	store, examID := authorCourse(t)
	rec, err := store.Exam(examID)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := store.Problems(rec.ProblemIDs)
	if err != nil {
		t.Fatal(err)
	}

	// SCORM.
	pkg, err := scorm.BuildPackage(rec, problems)
	if err != nil {
		t.Fatal(err)
	}
	var zipBuf bytes.Buffer
	if err := pkg.WriteZip(&zipBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := scorm.ReadZip(zipBuf.Bytes()); err != nil {
		t.Fatal(err)
	}

	// QTI round trip into a fresh bank.
	var items []qti.QTIItem
	for _, p := range problems {
		qi, err := qti.Export(p)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, *qi)
	}
	raw, err := qti.EncodeDocument(items)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := qti.ParseDocument(raw)
	if err != nil {
		t.Fatal(err)
	}
	fresh := bank.New()
	for i := range doc.Items {
		p, err := qti.Import(&doc.Items[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.AddProblem(p); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.ProblemCount() != len(problems) {
		t.Fatalf("imported = %d, want %d", fresh.ProblemCount(), len(problems))
	}
	// The imported problems administer and analyze cleanly.
	imported, err := fresh.Problems(fresh.ProblemIDs())
	if err != nil {
		t.Fatal(err)
	}
	pop, err := simulate.NewPopulation(simulate.PopulationConfig{N: 30, SD: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := simulate.Run(simulate.ExamConfig{
		ExamID: "imported",
		Items:  simulate.UniformSpecs(imported, simulate.IRTParams{A: 1.5}),
		Seed:   10,
	}, pop)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.Analyze(simRes, analysis.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestResultPersistenceAcrossPipeline: save a sitting, reload it, and the
// analysis is unchanged.
func TestResultPersistenceAcrossPipeline(t *testing.T) {
	store, examID := authorCourse(t)
	engine := delivery.NewEngine(store, nil, 0)
	sess, err := engine.Start(context.Background(), examID, "solo", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range sess.Order {
		if err := engine.Answer(context.Background(), sess.ID, pid, "A"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.Finish(context.Background(), sess.ID); err != nil {
		t.Fatal(err)
	}
	// A single student cannot be split; add a weaker second sitting.
	sess2, err := engine.Start(context.Background(), examID, "second", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range sess2.Order {
		if err := engine.Answer(context.Background(), sess2.ID, pid, "B"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.Finish(context.Background(), sess2.ID); err != nil {
		t.Fatal(err)
	}

	res, err := engine.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := analysis.WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := analysis.ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := analysis.Analyze(res, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := analysis.Analyze(back, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Questions {
		if a1.Questions[i].D != a2.Questions[i].D || a1.Questions[i].P != a2.Questions[i].P {
			t.Errorf("question %d indices changed across persistence", i+1)
		}
	}
}

// TestJournaledDeliveryAcrossRestart authors a course through the WAL
// journal, "restarts" (reopen over a fresh sharded backend), serves the exam
// from the recovered bank, and checks the sitting analyzes — the full
// crash-safe delivery path.
func TestJournaledDeliveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	j, err := bank.OpenJournal(dir, bank.NewSharded(4), bank.JournalOptions{CompactEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	_, examID := authorCourseInto(t, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := bank.OpenJournal(dir, bank.NewSharded(4), bank.JournalOptions{CompactEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.ProblemCount(); got != 8 {
		t.Fatalf("recovered %d problems, want 8", got)
	}

	engine := delivery.NewEngine(reopened, nil, 0)
	for s := 0; s < 2; s++ {
		sess, err := engine.Start(context.Background(), examID, fmt.Sprintf("r%d", s), int64(s))
		if err != nil {
			t.Fatal(err)
		}
		for qi, pid := range sess.Order {
			opt := "B"
			if qi <= s*4 {
				opt = "A"
			}
			if err := engine.Answer(context.Background(), sess.ID, pid, opt); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := engine.Finish(context.Background(), sess.ID); err != nil {
			t.Fatal(err)
		}
	}
	res, err := engine.CollectResults(examID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Students) != 2 {
		t.Fatalf("students = %d", len(res.Students))
	}
	if _, err := analysis.Analyze(res, analysis.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestAuthoringOverHTTP exercises the paper's authoring workflow entirely
// through the /v1 API and the SDK: problems created over HTTP, the exam
// assembled from a blueprint server-side, a sitting delivered, a problem
// fixed mid-life, and the results exported — no CLI, no direct store access.
func TestAuthoringOverHTTP(t *testing.T) {
	store := bank.NewSharded(8)
	engine := delivery.NewEngine(store, nil, 0)
	srv := httptest.NewServer(httpapi.NewServer(engine, store, httpapi.Options{}))
	defer srv.Close()
	c := client.New(srv.URL, client.WithLearnerID("instructor"))

	// Author 6 problems over 2 concepts.
	for i := 0; i < 6; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("h%d", i+1),
			fmt.Sprintf("HTTP-authored question %d", i+1),
			[]string{"w", "x", "y", "z"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.ConceptID = fmt.Sprintf("c%d", i%2+1)
		p.Level = cognition.Knowledge
		if err := c.CreateProblem(p); err != nil {
			t.Fatalf("create problem: %v", err)
		}
	}

	// A blueprint the bank cannot satisfy is a typed 422 with cell details.
	_, err := c.AssembleExam(httpapi.AssembleExamRequest{
		ID: "too-big", Title: "Too big",
		Require: []httpapi.BlueprintCell{
			{ConceptID: "c1", Level: cognition.Knowledge, Count: 99},
		},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != httpapi.CodeBlueprintShortfall {
		t.Fatalf("shortfall = %v, want BLUEPRINT_SHORTFALL", err)
	}
	if apiErr.Details["shortfalls"] == nil {
		t.Error("shortfall details missing")
	}

	// A satisfiable blueprint assembles and stores the exam.
	rec, err := c.AssembleExam(httpapi.AssembleExamRequest{
		ID: "httpexam", Title: "HTTP-authored exam", TestTimeSeconds: 3600,
		Require: []httpapi.BlueprintCell{
			{ConceptID: "c1", Level: cognition.Knowledge, Count: 2},
			{ConceptID: "c2", Level: cognition.Knowledge, Count: 2},
		},
	})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if len(rec.ProblemIDs) != 4 {
		t.Fatalf("assembled problems = %v", rec.ProblemIDs)
	}

	// Fix a flagged problem over HTTP; the bank keeps the revision.
	p, err := c.Problem(rec.ProblemIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Question = "Clarified wording"
	if err := c.UpdateProblem(p); err != nil {
		t.Fatalf("update: %v", err)
	}
	if got := store.Version(p.ID); got != 2 {
		t.Errorf("version after HTTP update = %d, want 2", got)
	}

	// Search finds the updated problem by keyword.
	found, err := c.ListProblems(client.ProblemQuery{Keyword: "clarified"})
	if err != nil {
		t.Fatal(err)
	}
	if found.Total != 1 || found.Problems[0].ID != p.ID {
		t.Errorf("search = %+v", found)
	}

	// Deliver one sitting and export the matrix.
	learner := client.New(srv.URL, client.WithLearnerID("zoe"))
	started, err := learner.StartSession("httpexam", "zoe", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range started.Order {
		if err := learner.Answer(started.SessionID, pid, "A"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := learner.Finish(started.SessionID); err != nil {
		t.Fatal(err)
	}
	res, err := c.Results("httpexam")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Students) != 1 || res.Students[0].StudentID != "zoe" {
		t.Errorf("results = %+v", res.Students)
	}
}

// TestAdaptiveDeliveryOverHTTP drives the live CAT subsystem end to end
// through the /v1 API and the SDK: author a calibrated pool over HTTP, run
// adaptive sessions one item at a time, check the SE-threshold stopping
// rule fires before max-items on a well-separated learner, and close the
// calibration feedback loop — a recalibration pass over the logged
// responses must move stored difficulties in the expected direction.
func TestAdaptiveDeliveryOverHTTP(t *testing.T) {
	store := bank.NewSharded(8)
	engine := delivery.NewEngine(store, nil, 0)
	cat, err := catdelivery.NewEngine(store, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewServer(engine, store, httpapi.Options{Adaptive: cat}))
	defer srv.Close()
	admin := client.New(srv.URL, client.WithLearnerID("admin"))

	// Author a 40-item calibrated pool entirely over HTTP: problems first,
	// then an exam record carrying per-item IRT parameters.
	const poolSize = 40
	params := make(map[string]api.IRTParams, poolSize)
	var ids []string
	for i := 0; i < poolSize; i++ {
		id := fmt.Sprintf("cat-q%02d", i+1)
		p, err := item.NewMultipleChoice(id, fmt.Sprintf("CAT question %d", i+1),
			[]string{"w", "x", "y", "z"}, 0) // correct A
		if err != nil {
			t.Fatal(err)
		}
		p.ConceptID = "c1"
		p.Level = cognition.Knowledge
		if err := admin.CreateProblem(p); err != nil {
			t.Fatalf("create problem: %v", err)
		}
		params[id] = api.IRTParams{A: 2.0, B: -2 + 4*float64(i)/float64(poolSize-1)}
		ids = append(ids, id)
	}
	if err := admin.CreateExam(&api.ExamRecord{
		ID: "catexam", Title: "Adaptive pool", ProblemIDs: ids, ItemParams: params,
	}); err != nil {
		t.Fatalf("create exam: %v", err)
	}

	// A well-separated learner (true theta 1.2) with a high-discrimination
	// pool: the SE threshold must fire well before max-items.
	learner := client.New(srv.URL, client.WithLearnerID("theta12"))
	req := api.StartAdaptiveSessionRequest{ExamID: "catexam", StudentID: "theta12", Seed: 17}
	req.MaxItems = poolSize
	req.TargetSE = 0.4
	started, err := learner.StartAdaptiveSession(req)
	if err != nil {
		t.Fatalf("start adaptive: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	const truth = 1.2
	pending := started.Next
	var finalProg *api.AdaptiveProgress
	for steps := 0; steps < poolSize+1; steps++ {
		response := "B"
		if rng.Float64() < params[pending.ProblemID].ProbCorrect(truth) {
			response = "A"
		}
		prog, err := learner.AdaptiveRespond(started.SessionID, pending.ProblemID, response)
		if err != nil {
			t.Fatalf("respond: %v", err)
		}
		if prog.Done {
			finalProg = prog
			break
		}
		pending = prog.Next
	}
	if finalProg == nil {
		t.Fatal("session never stopped")
	}
	out, err := learner.FinishAdaptiveSession(started.SessionID)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if out.StopReason != catdelivery.StopSETarget {
		t.Fatalf("stop = %q after %d items (SE %.3f), want se-target",
			out.StopReason, len(out.Administered), out.SE)
	}
	if len(out.Administered) >= poolSize {
		t.Errorf("SE rule fired only at pool exhaustion: %d items", len(out.Administered))
	}
	if out.SE > 0.4 {
		t.Errorf("final SE = %.3f, want <= 0.4", out.SE)
	}
	if out.Theta < 0.3 {
		t.Errorf("theta = %.2f for a strong learner, want clearly positive", out.Theta)
	}

	// Feed the loop: a cohort of strong learners answers everything
	// correctly, so the administered items are easier than authored and a
	// recalibration pass must LOWER their stored difficulties. The cohort
	// runs on its own exam record (same problems, same parameters) so the
	// mixed-response session above doesn't blur the direction check.
	if err := admin.CreateExam(&api.ExamRecord{
		ID: "catexam2", Title: "Adaptive pool 2", ProblemIDs: ids, ItemParams: params,
	}); err != nil {
		t.Fatalf("create exam 2: %v", err)
	}
	for i := 0; i < 8; i++ {
		c := client.New(srv.URL)
		req := api.StartAdaptiveSessionRequest{
			ExamID: "catexam2", StudentID: fmt.Sprintf("ace%d", i), Seed: int64(i)}
		req.MaxItems = 10
		s, err := c.StartAdaptiveSession(req)
		if err != nil {
			t.Fatal(err)
		}
		next := s.Next
		for {
			prog, err := c.AdaptiveRespond(s.SessionID, next.ProblemID, "A")
			if err != nil {
				t.Fatal(err)
			}
			if prog.Done {
				break
			}
			next = prog.Next
		}
	}
	before, err := admin.Exam("catexam2")
	if err != nil {
		t.Fatal(err)
	}
	cal, err := admin.RecalibrateExam("catexam2", 5)
	if err != nil {
		t.Fatalf("recalibrate: %v", err)
	}
	if len(cal.Updated) == 0 {
		t.Fatal("recalibration updated nothing")
	}
	after, err := admin.Exam("catexam2")
	if err != nil {
		t.Fatal(err)
	}
	lowered, raised := 0, 0
	for pid, newParams := range cal.Updated {
		if after.ItemParams[pid].B != newParams.B {
			t.Errorf("item %s: stored b %.3f != reported %.3f",
				pid, after.ItemParams[pid].B, newParams.B)
		}
		switch old := before.ItemParams[pid].B; {
		case newParams.B < old-1e-9:
			lowered++
		case newParams.B > old+0.05: // grid resolution slack
			raised++
		}
		// Items already far easier than the cohort barely move: the
		// likelihood is flat there and the prior pins them — that is the
		// regularization working, not a direction failure.
	}
	if raised > 0 {
		t.Errorf("%d recalibrated items moved HARDER for an all-correct cohort", raised)
	}
	if lowered < len(cal.Updated)/2 {
		t.Errorf("only %d/%d recalibrated items moved easier for an all-correct cohort",
			lowered, len(cal.Updated))
	}
	// The adaptive monitor captured the sitting.
	snaps, err := learner.AdaptiveMonitor(started.SessionID)
	if err != nil || len(snaps) == 0 {
		t.Errorf("monitor snapshots = %d, %v", len(snaps), err)
	}
}

// TestLiveEventStreamOverHTTP is the live-monitoring loop end to end: a
// watcher subscribes to /v1/exams/{id}/live through the request
// edge while a learner sits the exam over /v1, sees the raw lifecycle
// events and the incremental item statistics arrive in order, then
// reconnects with Last-Event-ID and receives exactly the events missed
// while disconnected.
func TestLiveEventStreamOverHTTP(t *testing.T) {
	store, examID := authorCourse(t)
	engine := delivery.NewEngine(store, nil, 8)
	bus := events.NewBus(events.Options{})
	defer bus.Close()
	engine.SetEventBus(bus)
	live := livestats.New(bus)
	defer live.Close()
	srv := httptest.NewServer(httpapi.NewServer(engine, store, httpapi.Options{
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)), // full chain incl. statusRecorder
		RatePerSec: 1e6, Burst: 1 << 20,
		Events:    bus,
		LiveStats: live,
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watcher := client.New(srv.URL, client.WithLearnerID("instructor"))
	stream, err := watcher.StreamExamLive(ctx, examID, "")
	if err != nil {
		t.Fatal(err)
	}

	// The learner sits the exam over the same API: 3 answers while the
	// watcher is connected (2 correct, 1 wrong).
	learner := client.New(srv.URL, client.WithLearnerID("alice"))
	started, err := learner.StartSession(examID, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	answers := []string{"A", "A", "B"}
	for i, opt := range answers {
		if err := learner.Answer(started.SessionID, started.Order[i], opt); err != nil {
			t.Fatal(err)
		}
	}

	// Raw events arrive in order with contiguous sequence numbers.
	nextEvent := func(s *client.EventStream) (*client.StreamFrame, *api.Event) {
		t.Helper()
		for {
			f, err := s.Next()
			if err != nil {
				t.Fatalf("stream next: %v", err)
			}
			if f.IsStats() {
				continue
			}
			e, err := f.DecodeEvent()
			if err != nil {
				t.Fatal(err)
			}
			return f, e
		}
	}
	wantTypes := []api.EventType{api.EventSessionStarted, api.EventResponseSubmitted,
		api.EventResponseSubmitted, api.EventResponseSubmitted}
	var lastID string
	for i, want := range wantTypes {
		f, e := nextEvent(stream)
		if e.Type != want {
			t.Fatalf("event %d: type %s, want %s", i, e.Type, want)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Type == api.EventResponseSubmitted {
			wantCorrect := answers[e.Answered-1] == "A"
			if e.Correct != wantCorrect {
				t.Fatalf("event %d: correct=%v, want %v", i, e.Correct, wantCorrect)
			}
		}
		lastID = f.ID
	}

	// A stats frame catches up to the delivered events and reflects the
	// running difficulty of what was answered so far.
	deadlineStats := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadlineStats) {
			t.Fatal("no stats frame caught up to the delivered events")
		}
		f, err := stream.Next()
		if err != nil {
			t.Fatalf("stream next: %v", err)
		}
		if !f.IsStats() {
			continue
		}
		snap, err := f.DecodeStats()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Seq < 4 {
			continue // aggregator still folding; a fresher frame follows
		}
		if snap.ActiveSessions != 1 || snap.Responses != 3 {
			t.Fatalf("stats: %+v", snap)
		}
		correct := 0
		for _, it := range snap.Items {
			correct += it.Correct
		}
		if correct != 2 {
			t.Fatalf("stats count %d correct, want 2", correct)
		}
		break
	}

	// Watcher disconnects; the sitting continues without it.
	cancel()
	for i := 3; i < len(started.Order); i++ {
		if err := learner.Answer(started.SessionID, started.Order[i], "A"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := learner.Finish(started.SessionID); err != nil {
		t.Fatal(err)
	}

	// Reconnect with Last-Event-ID: exactly the missed events replay —
	// the remaining answers and the finish, in order, nothing duplicated.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	stream2, err := watcher.StreamExamLive(ctx2, examID, lastID)
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(4)
	for i := 3; i < len(started.Order); i++ {
		f, e := nextEvent(stream2)
		if f.Event == string(api.EventGap) {
			t.Fatal("gap marker on an in-window resume")
		}
		if e.Type != api.EventResponseSubmitted || e.Seq != seq+1 {
			t.Fatalf("resumed event: type %s seq %d, want response.submitted %d", e.Type, e.Seq, seq+1)
		}
		seq = e.Seq
	}
	_, e := nextEvent(stream2)
	if e.Type != api.EventSessionFinished || e.Seq != seq+1 {
		t.Fatalf("final resumed event: %+v", e)
	}

	// The post-reconnect stats converge on the finished sitting: 8 items
	// attempted, 7 correct, the sitting folded into the histogram.
	deadlineStats = time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadlineStats) {
			t.Fatal("no final stats frame after reconnect")
		}
		f, err := stream2.Next()
		if err != nil {
			t.Fatalf("stream2 next: %v", err)
		}
		if !f.IsStats() {
			continue
		}
		snap, err := f.DecodeStats()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Seq < e.Seq {
			continue
		}
		if snap.FinishedSessions != 1 || snap.ActiveSessions != 0 || snap.Responses != 8 {
			t.Fatalf("final stats: %+v", snap)
		}
		total := 0
		for _, n := range snap.ScoreHistogram {
			total += n
		}
		if total != 1 {
			t.Fatalf("histogram holds %d sittings, want 1", total)
		}
		break
	}
}
