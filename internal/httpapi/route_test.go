package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/obs"
)

func tableServer() *Server {
	store := bank.New()
	return NewServer(delivery.NewEngine(store, nil, 0), store, Options{})
}

// instantiate fills a pattern's placeholders with a concrete path.
var instantiate = strings.NewReplacer(
	"{id}:{verb}", "x:zz", "{file...}", "a/b.html", "{id}", "x").Replace

// TestRouteTableRowsAreReachable: every row's pattern, instantiated, is
// matched first by that row's pattern (no earlier row shadows it), and a
// method outside the pattern's set is a typed 405 whose Allow header lists
// exactly the set.
func TestRouteTableRowsAreReachable(t *testing.T) {
	s := tableServer()
	rows := s.table()
	allow := map[string][]string{}
	for _, rw := range rows {
		allow[rw.pattern] = append(allow[rw.pattern], rw.method)
	}
	for _, rw := range rows {
		path := instantiate(rw.pattern)
		if rt, _ := s.find(path); rt == nil || rt.pattern != rw.pattern {
			t.Errorf("%s %s: %s is not matched by its own pattern first", rw.method, rw.pattern, path)
			continue
		}
		set := allow[rw.pattern]
		var other string
		for _, m := range []string{"GET", "POST", "PUT", "DELETE", "PATCH"} {
			if !slices.Contains(set, m) {
				other = m
				break
			}
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(other, path, nil))
		var e Error
		if rec.Code != http.StatusMethodNotAllowed || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code != CodeMethodNotAllowed {
			t.Errorf("%s %s = %d %s, want a 405 envelope", other, path, rec.Code, rec.Body)
		}
		if got := rec.Header().Values("Allow"); !slices.Equal(got, set) {
			t.Errorf("%s %s: Allow = %v, want %v", other, path, got, set)
		}
	}
}

func TestRouteMatch(t *testing.T) {
	s := tableServer()
	cases := []struct {
		path, pattern, id string // pattern "" means no route matches
	}{
		{"/v1/sessions/s1:answer", "/v1/sessions/{id}:answer", "s1"},
		{"/v1/sessions/s1", "/v1/sessions/{id}", "s1"},
		{"/v1/sessions/s1:dance", "/v1/sessions/{id}:{verb}", "dance"},
		{"/v1/adaptive-sessions/c1:warp", "/v1/adaptive-sessions/{id}:{verb}", "warp"},
		{"/v1/exams/fall:2026", "/v1/exams/{id}", "fall:2026"},
		{"/v1/exams/fall:2026/sessions", "/v1/exams/{id}/sessions", "fall:2026"},
		{"/v1/exams/fall:2026:recalibrate", "/v1/exams/{id}:recalibrate", "fall:2026"},
		{"/v1/exams:assemble", "/v1/exams:assemble", ""},
		{"/v1/adaptive-sessions:purge", "/v1/adaptive-sessions:purge", ""},
		{"/api/session/start", "/api/session/start", ""},
		{"/package/content/problem_001.html", "/package/{file...}", "content/problem_001.html"},
		{"/package/imsmanifest.xml", "/package/{file...}", "imsmanifest.xml"},
		// Empty segments and trailing slashes match nothing.
		{"/v1/sessions/", "", ""},
		{"/v1/sessions//monitor", "", ""},
		{"/v1/sessions/s1/", "", ""},
		{"/v1/exams/", "", ""},
		{"/v1/problems/", "", ""},
		{"/package/", "", ""},
		{"/package", "", ""},
		{"/v1/nonsense", "", ""},
		{"/", "", ""},
		{"*", "", ""},
	}
	for _, tc := range cases {
		rt, id := s.find(tc.path)
		got := ""
		if rt != nil {
			got = rt.pattern
		}
		if got != tc.pattern || id != tc.id {
			t.Errorf("find(%q) = %q, %q; want %q, %q", tc.path, got, id, tc.pattern, tc.id)
		}
	}
	var rt *route
	allocs := testing.AllocsPerRun(200, func() {
		rt, _ = s.find("/v1/sessions/sess-000001:answer")
	})
	if rt == nil || allocs != 0 {
		t.Errorf("matching a session answer allocated %v times (route %+v)", allocs, rt)
	}
}

// TestOneSeriesPerEndpoint: a long /live stream and the session starts on
// the same exam are separate http_request_seconds series in /v1/metrics
// and in the Prometheus exposition; a 404 and a 405 land under
// "unmatched"; and every request served is counted exactly once.
func TestOneSeriesPerEndpoint(t *testing.T) {
	store, examID := examFixture(t, false)
	eng := delivery.NewEngine(store, nil, 8)
	bus := events.NewBus(events.Options{})
	t.Cleanup(bus.Close)
	eng.SetEventBus(bus)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewServer(eng, store, Options{Obs: reg, Events: bus}))
	t.Cleanup(srv.Close)

	const sittings = 5
	live := openSSE(t, srv.URL, "/v1/exams/"+examID+"/live", "")
	for i := 0; i < sittings; i++ {
		startV1(t, srv.URL, examID, "s"+strconv.Itoa(i))
	}
	live.nextEvent(t) // the stream is serving while the sittings start
	live.close()
	code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/nonsense", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unrouted path = %d", code)
	}
	if code, _ = doJSON(t, http.MethodDelete, srv.URL+"/v1/metrics", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/metrics = %d", code)
	}

	const liveRoute, startRoute = "GET /v1/exams/{id}/live", "POST /v1/exams/{id}/sessions"
	// The stream's request is counted when its handler returns, which
	// trails the client's disconnect.
	var snap MetricsSnapshot
	for deadline := time.Now().Add(5 * time.Second); ; {
		snap = MetricsSnapshot{}
		if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/metrics", nil, &snap); code != http.StatusOK {
			t.Fatalf("metrics = %d", code)
		}
		if routeCount(snap, liveRoute) == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	scrapes := routeCount(snap, "GET /v1/metrics") + 1 // the snapshot excludes its own request
	served := 1 + sittings + 2 + scrapes
	if got := routeCount(snap, liveRoute); got != 1 {
		t.Errorf("%s count = %d, want 1 (routes %+v)", liveRoute, got, snap.Routes)
	}
	if got := routeCount(snap, startRoute); got != sittings {
		t.Errorf("%s count = %d, want %d", startRoute, got, sittings)
	}
	for _, rm := range snap.Routes {
		if rm.Route == unmatchedRoute && (rm.ByStatus["404"] != 1 || rm.ByStatus["405"] != 1) {
			t.Errorf("unmatched by status = %v, want one 404 and one 405", rm.ByStatus)
		}
	}
	if snap.Requests != int64(served-1) {
		t.Errorf("snapshot requests = %d, want %d", snap.Requests, served-1)
	}

	counts, total := requestCounts(t, reg)
	for route, want := range map[string]float64{liveRoute: 1, startRoute: sittings, unmatchedRoute: 2} {
		if got := counts[`http_request_seconds_count{route="`+route+`"}`]; got != want {
			t.Errorf("prometheus %s count = %v, want %v (series %v)", route, got, want, counts)
		}
	}
	if total != float64(served) {
		t.Errorf("sum of http_request_seconds_count = %v, want %d requests", total, served)
	}

	// With the limiter on, a 429 counts under the row it addressed (or
	// unmatched), so the series still sum to every request served. Burst 2
	// lets the first two GETs through; the rest are refused.
	reg = obs.NewRegistry()
	limited := NewServer(eng, store, Options{Obs: reg, RatePerSec: 1, Burst: 2, Now: newFakeClock().Now})
	const gets, strays = 5, 2
	for i := 0; i < gets+strays; i++ {
		path := "/v1/exams"
		if i >= gets {
			path = "/v1/nonsense"
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("X-Learner-ID", "hammer")
		limited.ServeHTTP(httptest.NewRecorder(), req)
	}
	snap = limited.Metrics().Snapshot()
	if snap.RateLimited != gets+strays-2 {
		t.Errorf("rate limited = %d, want %d", snap.RateLimited, gets+strays-2)
	}
	for _, rm := range snap.Routes {
		switch rm.Route {
		case "GET /v1/exams":
			if rm.Count != gets || rm.ByStatus["200"] != 2 || rm.ByStatus["429"] != gets-2 {
				t.Errorf("GET /v1/exams = %d requests by status %v, want %d with 2 served", rm.Count, rm.ByStatus, gets)
			}
		case unmatchedRoute:
			if rm.ByStatus["429"] != strays {
				t.Errorf("unmatched by status = %v, want %d 429s", rm.ByStatus, strays)
			}
		}
	}
	if _, total = requestCounts(t, reg); total != gets+strays {
		t.Errorf("sum of http_request_seconds_count = %v with the limiter on, want %d requests", total, gets+strays)
	}
}

// requestCounts parses reg's Prometheus exposition into its
// http_request_seconds_count series and their sum.
func requestCounts(t *testing.T, reg *obs.Registry) (map[string]float64, float64) {
	t.Helper()
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(&prom)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), " # ") // drop exemplars
		if !strings.HasPrefix(line, "http_request_seconds_count{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		counts[line[:i]] = v
		total += v
	}
	return counts, total
}

func routeCount(snap MetricsSnapshot, route string) int64 {
	for _, rm := range snap.Routes {
		if rm.Route == route {
			return rm.Count
		}
	}
	return 0
}
