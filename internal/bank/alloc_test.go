package bank

import (
	"fmt"
	"testing"

	"mineassess/internal/item"
	"mineassess/internal/wal"
)

// journalCommitAllocs is the recorded cost of one journal commit (encode,
// batch submit, committer write) in heap allocations. A reading may exceed
// it by 20% plus half an allocation of noise.
const (
	journalCommitAllocs       = 11
	journalCommitAllocCeiling = journalCommitAllocs*1.2 + 0.5
)

// TestJournalCommitAllocs pins the allocations of one journaled AddProblem
// under SyncNone, where no fsync hides the encode and submit path.
func TestJournalCommitAllocs(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), NewSharded(0), JournalOptions{
		CompactEvery: 1_000_000,
		Sync:         wal.SyncNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Enough calls that the store's one-time map growth amortizes away, as
	// it did in the benchmark that recorded the base. AllocsPerRun calls
	// the function once more to warm up; every call commits a new problem.
	const runs = 2000
	probs := make([]*item.Problem, runs+1)
	for i := range probs {
		if probs[i], err = item.NewMultipleChoice(fmt.Sprintf("alloc-q%04d", i),
			"alloc probe", []string{"a", "b", "c", "d"}, i%4); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	var commitErr error
	got := testing.AllocsPerRun(runs, func() {
		if err := j.AddProblem(probs[next]); err != nil && commitErr == nil {
			commitErr = err
		}
		next++
	})
	if commitErr != nil {
		t.Fatal(commitErr)
	}
	t.Logf("journal commit: %.0f allocs/op (ceiling %.1f)", got, journalCommitAllocCeiling)
	if got > journalCommitAllocCeiling {
		t.Errorf("journal commit allocates %.0f per op, ceiling %.1f", got, journalCommitAllocCeiling)
	}
}
