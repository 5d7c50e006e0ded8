package client

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"mineassess/internal/analysis"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/internal/race"
)

// resultsKB and resultsAllocs are the recorded cost of one warm Results
// call on a 250-student, 40-question export (~1.1 MB): the decoded result
// itself — a response list per student sized to the problem list, and the
// ID strings — plus one student's worth of decoder buffer. A reading may
// exceed either by 20% plus half a unit of noise.
const (
	resultsKB           = 918
	resultsKBCeiling    = resultsKB*1.2 + 0.5
	resultsAllocs       = 20976
	resultsAllocCeiling = resultsAllocs*1.2 + 0.5
)

// classExport encodes the export of a class of students sitting 40
// four-option questions, as the server writes it.
func classExport(t *testing.T, students int) []byte {
	t.Helper()
	res := analysis.ExamResult{ExamID: "class", Students: []analysis.StudentResult{}}
	for q := 0; q < 40; q++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%02d", q), "SDK question",
			[]string{"w", "x", "y", "z"}, q%4)
		if err != nil {
			t.Fatal(err)
		}
		p.Level = cognition.Knowledge
		res.Problems = append(res.Problems, p)
	}
	for s := 0; s < students; s++ {
		st := analysis.StudentResult{StudentID: fmt.Sprintf("s%04d", s)}
		for q, p := range res.Problems {
			opt := string(rune('A' + (s+q)%4))
			credit, _ := p.Grade(opt)
			st.Responses = append(st.Responses, analysis.Response{StudentID: st.StudentID,
				ProblemID: p.ID, Option: opt, Credit: credit, Answered: true, TimeSpent: 1e9})
		}
		res.Students = append(res.Students, st)
	}
	raw, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// resultsCost returns the mean bytes and allocations of one warm Results
// call against a server that writes the pre-encoded export (chunked, as
// the real server streams it).
func resultsCost(t *testing.T, students int) (kb, allocs float64) {
	t.Helper()
	raw := classExport(t, students)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(raw)
	}))
	defer srv.Close()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	c := New(srv.URL, WithTransport(tr))
	call := func() {
		res, err := c.Results("class")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Students) != students || len(res.Students[0].Responses) != 40 {
			t.Fatalf("decoded %d students, want %d", len(res.Students), students)
		}
	}
	for i := 0; i < 3; i++ {
		call()
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024,
		float64(after.Mallocs-before.Mallocs) / runs
}

// TestResultsAllocs pins what a warm Results call allocates on the
// teacher report's 250 x 40 export, and that the cost is linear in the
// class: 500 students cost at most 2.2x the bytes of 250. The ceilings
// hold for normal builds; under the race detector only linearity is
// checked (see internal/race).
func TestResultsAllocs(t *testing.T) {
	kb, allocs := resultsCost(t, 250)
	t.Logf("warm Results, 250 students x 40 questions: %.1f KB, %.0f allocs per call (ceilings %.1f KB, %.1f)",
		kb, allocs, resultsKBCeiling, resultsAllocCeiling)
	if kb > resultsKBCeiling && !race.Enabled {
		t.Errorf("a warm Results call allocates %.1f KB, ceiling %.1f KB", kb, resultsKBCeiling)
	}
	if allocs > resultsAllocCeiling && !race.Enabled {
		t.Errorf("a warm Results call allocates %.0f times, ceiling %.1f", allocs, resultsAllocCeiling)
	}
	kb500, _ := resultsCost(t, 500)
	t.Logf("warm Results, 500 students: %.1f KB per call (%.2fx of 250)", kb500, kb500/kb)
	if kb500 > 2.2*kb {
		t.Errorf("500 students cost %.1f KB, %.2fx the %.1f KB of 250; want at most 2.2x", kb500, kb500/kb, kb)
	}
}
