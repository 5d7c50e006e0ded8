package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
	"mineassess/internal/cognition"
	"mineassess/internal/delivery"
	"mineassess/internal/item"
	"mineassess/internal/race"
)

// exportKB is the recorded cost of one results export of 250 finished
// 40-question sittings, in KB allocated, with a GC before the call. The
// sittings built their rows when they ended, so the export allocates the
// student list and, when the GC emptied the pools they come from, the
// encoder's 64 KB buffer and encoding/json's scratch: a pool miss, the most
// a call costs. A reading may exceed it by 20% plus half a KB of noise.
const (
	exportKB        = 100
	exportKBCeiling = exportKB*1.2 + 0.5
)

// escapedExamFixture stores a multiple-choice problem and a questionnaire
// whose text, and the questionnaire's collected response, hold the
// characters encoding/json escapes, in an untimed exam.
func escapedExamFixture(t *testing.T) (bank.Storage, string) {
	t.Helper()
	s := bank.New()
	mc, err := item.NewMultipleChoice("mc<1>", "Is 1 < 2 && 3 > 2?", []string{"<yes>", "no & never"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc.Level = cognition.Knowledge
	survey := &item.Problem{ID: "survey&", Style: item.Questionnaire, Question: "Rate <this> & that.",
		Level: cognition.Evaluation}
	for _, p := range []*item.Problem{mc, survey} {
		if err := s.AddProblem(p); err != nil {
			t.Fatal(err)
		}
	}
	rec := &bank.ExamRecord{ID: "escaped", Title: "<Escapes> & more",
		ProblemIDs: []string{mc.ID, survey.ID}, Display: item.FixedOrder}
	if err := s.AddExam(rec); err != nil {
		t.Fatal(err)
	}
	return banktest.Guard(t, s), rec.ID
}

// TestExportMatchesEncoder: both export routes write the bytes
// json.NewEncoder(w).Encode writes of the collected results: for the
// contract fixtures (a timed exam with a finished, an expired and a running
// sitting; an essay exam with a graded essay), for an exam with no ended
// sitting, and for problem and response text holding <, > and &.
func TestExportMatchesEncoder(t *testing.T) {
	ctx := context.Background()
	type fixture struct {
		name  string
		build func(*testing.T) (bank.Storage, string)
		sit   func(*testing.T, *delivery.Engine, *fakeClock, string)
	}
	answer := func(t *testing.T, eng *delivery.Engine, sid, pid, resp string) {
		t.Helper()
		if err := eng.Answer(ctx, sid, pid, resp); err != nil {
			t.Fatal(err)
		}
	}
	start := func(t *testing.T, eng *delivery.Engine, examID, student string) string {
		t.Helper()
		s, err := eng.Start(ctx, examID, student, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s.ID
	}
	finish := func(t *testing.T, eng *delivery.Engine, sid string) {
		t.Helper()
		if _, err := eng.Finish(ctx, sid); err != nil {
			t.Fatal(err)
		}
	}
	fixtures := []fixture{
		{"timed exam", func(t *testing.T) (bank.Storage, string) { return examFixture(t, false) },
			func(t *testing.T, eng *delivery.Engine, clock *fakeClock, examID string) {
				done := start(t, eng, examID, "alice")
				late := start(t, eng, examID, "bob")
				clock.Advance(time.Minute)
				answer(t, eng, done, "q1", "A")
				answer(t, eng, done, "q2", "B")
				answer(t, eng, late, "q3", "A")
				finish(t, eng, done)
				clock.Advance(time.Hour) // bob's sitting expires
				start(t, eng, examID, "carol")
			}},
		{"essay exam", essayExamFixture,
			func(t *testing.T, eng *delivery.Engine, clock *fakeClock, examID string) {
				sid := start(t, eng, examID, "dave")
				clock.Advance(time.Minute)
				answer(t, eng, sid, "essay1", "my <essay> & more")
				answer(t, eng, sid, "mc1", "A")
				if err := eng.AssignGrade(sid, "essay1", 0.75); err != nil {
					t.Fatal(err)
				}
				finish(t, eng, sid)
			}},
		{"no ended sitting", func(t *testing.T) (bank.Storage, string) { return examFixture(t, false) },
			func(t *testing.T, eng *delivery.Engine, _ *fakeClock, examID string) {
				start(t, eng, examID, "erin")
			}},
		{"escaped text", escapedExamFixture,
			func(t *testing.T, eng *delivery.Engine, clock *fakeClock, examID string) {
				sid := start(t, eng, examID, "<frank>")
				clock.Advance(time.Minute)
				answer(t, eng, sid, "mc<1>", "A")
				answer(t, eng, sid, "survey&", "<b>fine</b> & well")
				finish(t, eng, sid)
			}},
	}
	for _, f := range fixtures {
		store, examID := f.build(t)
		clock := newFakeClock()
		eng := delivery.NewEngine(store, clock.Now, 8)
		srv := httptest.NewServer(NewServer(eng, store, Options{}))
		f.sit(t, eng, clock, examID)
		res, err := eng.CollectResults(examID)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(res); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v1/exams/" + examID + "/results", "/api/admin/results?exam=" + examID} {
			code, body := doJSON(t, http.MethodGet, srv.URL+path, nil, nil)
			if code != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
				t.Errorf("%s: GET %s = %d\n%s\nwant the encoder's\n%s", f.name, path, code, body, want.Bytes())
			}
		}
		srv.Close()
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing of the body.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestExportAllocs pins what one results export of 250 finished
// 40-question sittings allocates, with a GC before each call so a pool
// emptied by the collector counts as it does on a busy server. The ceiling
// holds for normal builds, not under the race detector (see
// internal/race).
func TestExportAllocs(t *testing.T) {
	ctx := context.Background()
	store := bank.NewSharded(0)
	ids := make([]string, 40)
	for i := range ids {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%02d", i), "?", []string{"w", "x", "y", "z"}, i%4)
		if err != nil {
			t.Fatal(err)
		}
		p.Level = cognition.Knowledge
		if err := store.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		ids[i] = p.ID
	}
	if err := store.AddExam(&bank.ExamRecord{ID: "class", ProblemIDs: ids, Display: item.FixedOrder}); err != nil {
		t.Fatal(err)
	}
	eng := delivery.NewEngine(store, nil, 0)
	for s := 0; s < 250; s++ {
		sess, err := eng.Start(ctx, "class", fmt.Sprintf("s%04d", s), 1)
		if err != nil {
			t.Fatal(err)
		}
		for q, pid := range ids {
			if err := eng.Answer(ctx, sess.ID, pid, string(rune('A'+(s+q)%4))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Finish(ctx, sess.ID); err != nil {
			t.Fatal(err)
		}
	}
	h := NewServer(eng, store, Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/exams/class/results", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // warm the route's first-use state
	const runs = 10
	var total uint64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	kb := float64(total) / runs / 1024
	t.Logf("export of 250 sittings x 40 questions: %.1f KB per call (ceiling %.1f KB)", kb, exportKBCeiling)
	if kb > exportKBCeiling && !race.Enabled {
		t.Errorf("an export allocates %.1f KB, ceiling %.1f KB", kb, exportKBCeiling)
	}
}
