package httpapi

// Monitor routes: each session's snapshot ring is read through the
// engines' Snapshots, so the body of an empty ring, an unknown or purged
// session, and reads racing captures are all decided by the engine.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mineassess/internal/delivery"
)

// TestMonitorEmptyRingIsArray: with capture disabled a live session's
// monitor is 200 [] on the v1 route and its legacy alias, never null.
func TestMonitorEmptyRingIsArray(t *testing.T) {
	store, examID := examFixture(t, false)
	eng := delivery.NewEngine(store, nil, 0)
	srv := httptest.NewServer(NewServer(eng, store, Options{}))
	t.Cleanup(srv.Close)
	sr := startV1(t, srv.URL, examID, "alice")
	for _, path := range []string{"/v1/sessions/", "/api/monitor/"} {
		url := srv.URL + path + sr.SessionID
		if path == "/v1/sessions/" {
			url += "/monitor"
		}
		code, raw := doJSON(t, http.MethodGet, url, nil, nil)
		if code != http.StatusOK || strings.TrimSpace(string(raw)) != "[]" {
			t.Errorf("GET %s = %d %s, want 200 []", url, code, raw)
		}
	}
}

// TestAdaptiveMonitorAfterPurge: a purged adaptive session's monitor is the
// engine's own 404 SESSION_NOT_FOUND, like any unknown session.
func TestAdaptiveMonitorAfterPurge(t *testing.T) {
	srv, _ := adaptiveServer(t)
	var started StartAdaptiveSessionResponse
	req := StartAdaptiveSessionRequest{ExamID: "cat1", StudentID: "p"}
	req.MaxItems = 1
	doJSON(t, http.MethodPost, srv.URL+"/v1/adaptive-sessions", req, &started)
	doJSON(t, http.MethodPost, srv.URL+"/v1/adaptive-sessions/"+started.SessionID+":respond",
		AnswerRequest{ProblemID: started.Next.ProblemID, Response: "A"}, nil)
	monitor := srv.URL + "/v1/adaptive-sessions/" + started.SessionID + "/monitor"
	var snaps []delivery.Snapshot
	code, raw := doJSON(t, http.MethodGet, monitor, nil, &snaps)
	if code != http.StatusOK || len(snaps) != 2 || snaps[0].Seq != 1 || snaps[1].Seq != 2 {
		t.Fatalf("monitor before purge = %d %s, want seqs 1, 2 (start + respond)", code, raw)
	}
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/adaptive-sessions:purge", nil, nil); code != http.StatusOK {
		t.Fatalf("purge: %d %s", code, raw)
	}
	code, raw = doJSON(t, http.MethodGet, monitor, nil, nil)
	wantEnvelope(t, code, raw, CodeSessionNotFound)
}

// TestMonitorReadsRaceAnswers: one goroutine answers sessions while the
// test polls their rings directly and over HTTP. Every read is a
// consistent ring: at most the capacity, contiguous sequence numbers.
// Run under -race.
func TestMonitorReadsRaceAnswers(t *testing.T) {
	store, examID := examFixture(t, false)
	const capacity = 3
	eng := delivery.NewEngine(store, nil, capacity)
	srv := httptest.NewServer(NewServer(eng, store, Options{}))
	t.Cleanup(srv.Close)
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = startV1(t, srv.URL, examID, fmt.Sprintf("s%d", i)).SessionID
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range ids {
			for q := 1; q <= 4; q++ {
				if err := eng.Answer(context.Background(), id, fmt.Sprintf("q%d", q), "A"); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	check := func(id string, snaps []delivery.Snapshot, final bool) {
		t.Helper()
		if len(snaps) == 0 || len(snaps) > capacity {
			t.Fatalf("%s: %d snapshots, want 1..%d", id, len(snaps), capacity)
		}
		last := snaps[len(snaps)-1].Seq
		for i, s := range snaps {
			if s.SessionID != id || s.Seq != last-len(snaps)+1+i {
				t.Fatalf("%s: ring %+v is not contiguous", id, snaps)
			}
		}
		if final && (len(snaps) != capacity || last != 5) {
			t.Fatalf("%s: final ring %+v, want seqs 3..5 (start + 4 answers)", id, snaps)
		}
	}
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		for _, id := range ids {
			snaps, err := eng.Snapshots(id)
			if err != nil {
				t.Fatal(err)
			}
			check(id, snaps, !polling)
			var overHTTP []delivery.Snapshot
			code, raw := doJSON(t, http.MethodGet, srv.URL+"/v1/sessions/"+id+"/monitor", nil, &overHTTP)
			if code != http.StatusOK {
				t.Fatalf("GET monitor %s = %d %s", id, code, raw)
			}
			check(id, overHTTP, !polling)
		}
	}
}
