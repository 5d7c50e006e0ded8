package main

import (
	"net/http"
	"testing"

	"mineassess/internal/loadgen"
	"mineassess/pkg/client"
)

// TestMetricsCommand scrapes a real in-process server (the same wired
// composition cmd/examserver runs) after a little traffic, covering the
// full path: instrumented routes → /v1/metrics JSON → SDK → table.
func TestMetricsCommand(t *testing.T) {
	ip, err := loadgen.StartInProcess(loadgen.InProcessConfig{NoJournal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	// Some traffic so the table has rows (the scrape itself counts too).
	if _, err := http.Get(ip.URL + "/v1/exams"); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"metrics", "-addr", ip.URL, "-subsystems"}); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	// The snapshot the command rendered: route quantiles must be populated.
	snap, err := client.New(ip.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range snap.Routes {
		if r.Route == "GET /v1/exams" {
			found = true
			if r.Count < 1 || r.P50Ms <= 0 || r.P99Ms < r.P50Ms {
				t.Errorf("route quantiles inconsistent: %+v", r)
			}
		}
	}
	if !found {
		t.Errorf("no /v1/exams row in %+v", snap.Routes)
	}
	if len(snap.Subsystems) == 0 {
		t.Error("in-process server exported no subsystem samples")
	}
}
