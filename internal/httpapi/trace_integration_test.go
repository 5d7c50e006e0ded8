package httpapi

// End-to-end trace integration: a real server wired with journal, bus and
// adaptive engine, driven over HTTP with a W3C traceparent, must produce a
// single connected span tree — HTTP root, engine child, wal.commit with
// its reconstructed phase children, bus.publish — all under the inbound
// trace ID, retrievable from the tracer's sinks.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
	"mineassess/internal/catdelivery"
	"mineassess/internal/cognition"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/trace"
	"mineassess/internal/wal"
)

// tracedStack boots the production composition (journal-backed store,
// event bus, both engines, always-retain tracer) behind httptest.
func tracedStack(t *testing.T) (*httptest.Server, *trace.Tracer) {
	t.Helper()
	j, err := bank.OpenJournal(t.TempDir(), bank.NewSharded(0),
		bank.JournalOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	seedCalibrated(t, j, 6)
	store := banktest.Guard(t, j)

	tracer := trace.New(trace.Options{SampleEvery: 1, Recent: 64, Retain: 64})
	bus := events.NewBus(events.Options{})
	t.Cleanup(bus.Close)
	eng := delivery.NewEngine(store, nil, 0)
	eng.SetEventBus(bus)
	cat, err := catdelivery.NewEngine(store, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	cat.SetEventBus(bus)
	srv := httptest.NewServer(NewServer(eng, store, Options{
		Adaptive: cat, Events: bus, Tracer: tracer,
	}))
	t.Cleanup(srv.Close)
	return srv, tracer
}

// seedCalibrated stores n calibrated MC problems as exam "cat1" through
// whatever storage it is handed (here: the journal, so seeding also
// exercises untraced WAL commits).
func seedCalibrated(t *testing.T, s bank.Storage, n int) {
	t.Helper()
	fixture := calibratedFixture(t, n)
	for _, id := range []string{"cat1"} {
		rec, err := fixture.Exam(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, pid := range rec.ProblemIDs {
			p, err := fixture.Problem(pid)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AddProblem(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddExam(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// doTraced is doJSON plus an outbound traceparent; it returns the status,
// body and the trace ID the server echoed back.
func doTraced(t *testing.T, method, url, traceparent string, body, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %s: %v (%s)", url, err, raw)
		}
	}
	tid, _, ok := trace.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("%s %s: response traceparent %q unparsable",
			method, url, resp.Header.Get("Traceparent"))
	}
	return resp.StatusCode, tid.String()
}

func TestTraceTreeAcrossWriteOverHTTP(t *testing.T) {
	srv, tracer := tracedStack(t)
	const inbound = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

	p := mustProblem(t, "traced1", "c1", cognition.Knowledge)
	code, tid := doTraced(t, http.MethodPost, srv.URL+"/v1/problems", inbound, p, nil)
	if code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	// The server adopted the inbound trace ID.
	if tid != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("echoed trace ID = %s, want the inbound one", tid)
	}

	td := tracer.Trace(tid)
	if td == nil {
		t.Fatal("trace not in either sink despite SampleEvery 1")
	}
	if td.RootName != "POST /v1/problems" {
		t.Errorf("root = %q", td.RootName)
	}
	// The root parents under the caller's span from the traceparent.
	if td.Root.ParentID != "b7ad6b7169203331" {
		t.Errorf("root parent = %q, want the inbound span ID", td.Root.ParentID)
	}

	// The WAL commit span hangs off the tree with its reconstructed
	// phases: enqueue-wait, batch-wait, fsync.
	commit := findSpan(td.Root, "wal.commit")
	if commit == nil {
		t.Fatalf("no wal.commit span in tree: %s", dumpTree(t, td))
	}
	if commit.Attrs["wal.op"] == "" || commit.Attrs["wal.policy"] != string(wal.SyncGroup) {
		t.Errorf("wal.commit attrs = %v", commit.Attrs)
	}
	for _, phase := range []string{"wal.enqueue-wait", "wal.batch-wait", "wal.fsync"} {
		if findSpan(commit, phase) == nil {
			t.Errorf("missing %s under wal.commit: %s", phase, dumpTree(t, td))
		}
	}
}

func TestTraceTreeAcrossAdaptiveSessionOverHTTP(t *testing.T) {
	srv, tracer := tracedStack(t)

	var started StartAdaptiveSessionResponse
	code, startTID := doTraced(t, http.MethodPost, srv.URL+"/v1/adaptive-sessions", "",
		StartAdaptiveSessionRequest{ExamID: "cat1", StudentID: "tr", Seed: 1}, &started)
	if code != http.StatusOK || started.Next == nil {
		t.Fatalf("start = %d", code)
	}
	if td := tracer.Trace(startTID); td == nil || findSpan(td.Root, "cat.start") == nil {
		t.Fatalf("start trace lacks cat.start: %s", dumpTree(t, td))
	}

	code, tid := doTraced(t, http.MethodPost,
		srv.URL+"/v1/adaptive-sessions/"+started.SessionID+":respond", "",
		AnswerRequest{ProblemID: started.Next.ProblemID, Response: "A"}, nil)
	if code != http.StatusOK {
		t.Fatalf("respond = %d", code)
	}
	td := tracer.Trace(tid)
	if td == nil {
		t.Fatal("respond trace not retained")
	}
	respond := findSpan(td.Root, "cat.respond")
	if respond == nil {
		t.Fatalf("respond trace lacks cat.respond: %s", dumpTree(t, td))
	}
	// The post-persist progress event publish detaches from the request
	// ctx but keeps the span link, so bus.publish parents inside the tree.
	if findSpan(td.Root, "bus.publish") == nil {
		t.Fatalf("respond trace lacks bus.publish: %s", dumpTree(t, td))
	}
	// Fresh trace per request: respond did not reuse the start trace.
	if tid == startTID {
		t.Error("respond reused the start request's trace ID")
	}
}

// findSpan depth-first searches an exported tree for a span name.
func findSpan(sd *trace.SpanData, name string) *trace.SpanData {
	if sd == nil {
		return nil
	}
	if sd.Name == name {
		return sd
	}
	for _, c := range sd.Children {
		if got := findSpan(c, name); got != nil {
			return got
		}
	}
	return nil
}

// dumpTree renders a trace for failure messages.
func dumpTree(t *testing.T, td *trace.TraceData) string {
	t.Helper()
	raw, err := json.Marshal(td)
	if err != nil {
		return err.Error()
	}
	return string(raw)
}
