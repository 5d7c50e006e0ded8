package main

import "testing"

// The cheap arithmetic experiments run in microseconds; exercise each one
// plus the experiment selector.
func TestRunSingleExperiments(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E13", "E14"} {
		if err := run([]string{"-experiment", id, "-seed", "3"}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestRunSimulatedExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated experiments in -short mode")
	}
	for _, id := range []string{"E10", "E11", "E12", "E15", "E16", "E17", "A1", "A2"} {
		if err := run([]string{"-experiment", id, "-seed", "3"}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "E99"}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestPaperFixtureIntegrity(t *testing.T) {
	// The fixture tables must carry the paper's exact counts.
	if got := example1().Low["C"]; got != 0 {
		t.Errorf("example1 LC = %d, want 0", got)
	}
	if got := example2().High["E"]; got != 7 {
		t.Errorf("example2 HE = %d, want 7", got)
	}
	if got := workedQ2().High["C"]; got != 10 {
		t.Errorf("worked q2 HC = %d, want 10", got)
	}
	if got := workedQ6().Low["A"]; got != 0 {
		t.Errorf("worked q6 LA = %d, want 0", got)
	}
}
