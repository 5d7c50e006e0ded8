package main

import (
	"path/filepath"
	"strings"
	"testing"

	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

func TestRunMissingBank(t *testing.T) {
	if err := run([]string{"-bank", filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Error("missing bank should fail")
	}
}

func TestRunBankWithoutExams(t *testing.T) {
	store := bank.New()
	p, err := item.NewMultipleChoice("q1", "?", []string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Level = cognition.Knowledge
	if err := store.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bank.json")
	if err := store.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bank", path}); err == nil {
		t.Error("bank without exams should fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Error("unknown flag should fail")
	}
}

// TestRunRefusesAlwaysFsync: "always" is no longer a sync policy. The
// flag is parsed before the bank is opened, so an absent bank still
// reports the policy error.
func TestRunRefusesAlwaysFsync(t *testing.T) {
	err := run([]string{"-fsync", "always", "-bank", filepath.Join(t.TempDir(), "absent.json")})
	if err == nil || !strings.Contains(err.Error(), `unknown sync policy "always"`) {
		t.Fatalf("run(-fsync always) = %v, want an unknown sync policy error", err)
	}
}
