package bank

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"mineassess/internal/obs"
	"mineassess/internal/wal"
)

// powerCutWAL wraps the journal's real WAL sink and models the two layers a
// record crosses on its way to durability: Write hands bytes to the "page
// cache" (the real file), Sync makes everything written so far "durable".
// Cut() simulates a power failure by truncating the file back to the last
// synced offset — bytes the kernel accepted but never flushed are gone.
// FailNextWrite makes the next Write fail wholesale (disk error mid-batch),
// which poisons the journal.
type powerCutWAL struct {
	f wal.Sink

	mu            sync.Mutex
	written       int64
	synced        int64
	failNextWrite bool
}

func newPowerCutWAL(t *testing.T, j *Journal) *powerCutWAL {
	t.Helper()
	// Installed while the committer is idle: it only touches j.wal after a
	// kick, which happens-after this swap.
	pw := &powerCutWAL{}
	j.wal.WrapSink(func(s wal.Sink) wal.Sink { pw.f = s; return pw })
	return pw
}

func (w *powerCutWAL) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failNextWrite {
		w.failNextWrite = false
		return 0, errors.New("injected write failure")
	}
	n, err := w.f.Write(p)
	w.written += int64(n)
	return n, err
}

func (w *powerCutWAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.synced = w.written
	return nil
}

// Truncate empties the file durably (compaction), so nothing cut later
// lies before the new end.
func (w *powerCutWAL) Truncate(size int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	w.written, w.synced = size, size
	return nil
}

func (w *powerCutWAL) Close() error { return w.f.Close() }

// FailNextWrite arms a one-shot wholesale write failure.
func (w *powerCutWAL) FailNextWrite() {
	w.mu.Lock()
	w.failNextWrite = true
	w.mu.Unlock()
}

// Cut simulates the power failure: everything past the last fsync is lost.
func (w *powerCutWAL) Cut(t *testing.T, path string) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := os.Truncate(path, w.synced); err != nil {
		t.Fatalf("cut: %v", err)
	}
}

// TestJournalCrashSimulation drives concurrent writers through a journal
// whose WAL write fails mid-run (poisoning the journal, as a dying disk or
// kill -9 mid-batch would), then simulates a power failure by discarding
// every byte not yet fsynced, reopens, and checks each policy's contract:
//
//   - group: every acknowledged mutation replays; every mutation
//     whose writer got an error is absent. Acknowledgment happens only
//     after the covering fsync, so the cut can never land between ack and
//     durability.
//   - none: acknowledged mutations may be lost to the cut (ack is
//     write-through-page-cache); the journal must still reopen cleanly and
//     recover only mutations that were in fact written.
func TestJournalCrashSimulation(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncGroup, wal.SyncNone} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			j, err := OpenJournal(dir, NewSharded(8),
				JournalOptions{CompactEvery: 1_000_000, Sync: policy})
			if err != nil {
				t.Fatal(err)
			}
			pw := newPowerCutWAL(t, j)

			// Two concurrent waves with the write failure armed between
			// them: wave one must fully acknowledge, wave two hits the
			// failing WAL (the first batch write dies, poisoning the
			// journal, and every later mutation errors).
			const writers = 32
			acked := make([]bool, writers)
			failed := make([]bool, writers)
			wave := func(from, to int) {
				var wg sync.WaitGroup
				for i := from; i < to; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						err := j.AddProblem(confMC(t, fmt.Sprintf("q%02d", i)))
						if err == nil {
							acked[i] = true
						} else {
							failed[i] = true
						}
					}(i)
				}
				wg.Wait()
			}
			wave(0, writers/2)
			pw.FailNextWrite()
			wave(writers/2, writers)
			crashStop(j)
			pw.Cut(t, j.walPath)

			back, err := OpenJournal(dir, NewSharded(8), JournalOptions{})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer back.Close()

			lost, phantom := 0, 0
			for i := 0; i < writers; i++ {
				id := fmt.Sprintf("q%02d", i)
				_, err := back.Problem(id)
				present := err == nil
				if acked[i] && !present {
					lost++
				}
				if failed[i] && present {
					phantom++
				}
			}
			if policy == wal.SyncNone {
				// Weaker contract: no phantom errored writes may reappear,
				// but acknowledged ones are allowed to vanish with the
				// page cache.
				if phantom != 0 {
					t.Errorf("policy none: %d errored mutations resurrected", phantom)
				}
				return
			}
			if lost != 0 {
				t.Errorf("policy %s: %d acknowledged mutations lost after power cut", policy, lost)
			}
			if phantom != 0 {
				t.Errorf("policy %s: %d errored mutations resurrected", policy, phantom)
			}
			// The run must actually have exercised both outcomes.
			if n := count(acked); n == 0 {
				t.Error("no mutation was acknowledged before the failure")
			}
			if n := count(failed); n == 0 {
				t.Error("no mutation failed; the injected write failure never fired")
			}
		})
	}
}

// TestJournalCrashTornBatch tears the WAL mid-record after a clean run (the
// classic kill -9 during a batched write, page cache intact) and checks the
// torn tail is dropped while every complete record replays — the
// process-crash guarantee shared by all policies.
func TestJournalCrashTornBatch(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncGroup, wal.SyncNone} {
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			j, err := OpenJournal(dir, NewSharded(4),
				JournalOptions{CompactEvery: 1_000_000, Sync: policy})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if err := j.AddProblem(confMC(t, fmt.Sprintf("q%d", i))); err != nil {
						t.Errorf("AddProblem: %v", err)
					}
				}(i)
			}
			wg.Wait()
			crashStop(j)
			// Tear the last record in half.
			raw, err := os.ReadFile(j.walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(j.walPath, raw[:len(raw)-20], 0o644); err != nil {
				t.Fatal(err)
			}
			back, err := OpenJournal(dir, NewSharded(4), JournalOptions{})
			if err != nil {
				t.Fatalf("reopen over torn batch: %v", err)
			}
			defer back.Close()
			if got := back.ProblemCount(); got != 7 {
				t.Errorf("recovered %d problems, want 7 (torn final record dropped)", got)
			}
		})
	}
}

// TestJournalPoisonedAfterWriteFailure: once a batch write fails, the
// journal refuses every further mutation (memory and disk have diverged)
// while reads keep serving the in-memory state.
func TestJournalPoisonedAfterWriteFailure(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, NewSharded(4), JournalOptions{CompactEvery: 1_000_000, Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	pw := newPowerCutWAL(t, j)
	if err := j.AddProblem(confMC(t, "ok")); err != nil {
		t.Fatal(err)
	}
	pw.FailNextWrite()
	if err := j.AddProblem(confMC(t, "doomed")); err == nil {
		t.Fatal("write through failing WAL succeeded")
	}
	if err := j.AddProblem(confMC(t, "after")); err == nil {
		t.Fatal("poisoned journal accepted a mutation")
	}
	if err := j.Compact(); err == nil {
		t.Fatal("poisoned journal accepted a compaction")
	}
	// Reads still serve memory, including the unjournaled mutation.
	if _, err := j.Problem("doomed"); err != nil {
		t.Errorf("in-memory read after poison: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("Close of poisoned journal: %v", err)
	}
	// A restart replays only what reached the WAL.
	back, err := OpenJournal(dir, NewSharded(4), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, err := back.Problem("ok"); err != nil {
		t.Errorf("journaled mutation lost: %v", err)
	}
	if _, err := back.Problem("doomed"); err == nil {
		t.Error("unjournaled mutation resurrected")
	}
}

// TestJournalPoisonedGauge: journal_poisoned reads 0 while the WAL takes
// writes and 1 once a failed write has stopped the journal.
func TestJournalPoisonedGauge(t *testing.T) {
	reg := obs.NewRegistry()
	j, err := OpenJournal(t.TempDir(), NewSharded(4), JournalOptions{
		CompactEvery: 1_000_000, Sync: wal.SyncGroup, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	poisoned := func() float64 {
		t.Helper()
		for _, s := range reg.Snapshot() {
			if s.Name == "journal_poisoned" {
				return s.Value
			}
		}
		t.Fatal("no journal_poisoned series registered")
		return 0
	}
	pw := newPowerCutWAL(t, j)
	if err := j.AddProblem(confMC(t, "ok")); err != nil {
		t.Fatal(err)
	}
	if v := poisoned(); v != 0 {
		t.Fatalf("journal_poisoned = %v before any failure, want 0", v)
	}
	pw.FailNextWrite()
	if err := j.AddProblem(confMC(t, "doomed")); err == nil {
		t.Fatal("write through failing WAL succeeded")
	}
	if v := poisoned(); v != 1 {
		t.Fatalf("journal_poisoned = %v after a failed write, want 1", v)
	}
}

// TestJournalUnencodableWriteFailsAlone: a record that cannot be encoded
// (a NaN theta) fails its own write before the write applies. The journal
// stays open and unpoisoned, and a restart replays only the good write.
func TestJournalUnencodableWriteFailsAlone(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	j, err := OpenJournal(dir, NewSharded(4), JournalOptions{
		CompactEvery: 1_000_000, Sync: wal.SyncGroup, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = j.PutAdaptiveSession(&AdaptiveSessionRecord{ID: "cat-nan", ExamID: "pool",
		State: AdaptiveStateActive, MaxItems: 5, Theta: math.NaN(), PendingID: "q1"})
	if err == nil || errors.Is(err, ErrJournalClosed) {
		t.Fatalf("put of a NaN theta = %v, want an encode error", err)
	}
	if _, err := j.AdaptiveSession("cat-nan"); !errors.Is(err, ErrAdaptiveSessionNotFound) {
		t.Errorf("unencodable record was applied: %v", err)
	}
	poisoned := -1.0
	for _, s := range reg.Snapshot() {
		if s.Name == "journal_poisoned" {
			poisoned = s.Value
		}
	}
	if poisoned != 0 {
		t.Errorf("journal_poisoned = %v after an encode failure, want 0 (-1: not registered)", poisoned)
	}
	if err := j.AddProblem(confMC(t, "after")); err != nil {
		t.Fatalf("write after an encode failure: %v", err)
	}
	back := crashReopen(t, j)
	if _, err := back.Problem("after"); err != nil {
		t.Errorf("good write lost: %v", err)
	}
	if ids := back.AdaptiveSessionIDs(); len(ids) != 0 {
		t.Errorf("replayed sessions %v, want none", ids)
	}
}

// TestJournalCompactionNeverSnapshotsFailedWrite races a compaction against
// a mutation whose WAL commit is doomed to fail. The compaction scan may
// only capture mutations that are already in the WAL — if the scan ran
// between the doomed mutation's apply+enqueue and its failing batch write,
// the published snapshot would durably resurrect a mutation whose caller
// received an error. Iterated to give the scheduler chances to land in the
// window; the invariant must hold on every interleaving.
func TestJournalCompactionNeverSnapshotsFailedWrite(t *testing.T) {
	for i := 0; i < 40; i++ {
		dir := t.TempDir()
		j, err := OpenJournal(dir, NewSharded(4), JournalOptions{CompactEvery: 1_000_000, Sync: wal.SyncGroup})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.AddProblem(confMC(t, "base")); err != nil {
			t.Fatal(err)
		}
		pw := newPowerCutWAL(t, j)
		pw.FailNextWrite()
		var wg sync.WaitGroup
		wg.Add(2)
		var addErr error
		go func() {
			defer wg.Done()
			addErr = j.AddProblem(confMC(t, "doomed"))
		}()
		go func() {
			defer wg.Done()
			_ = j.Compact() // may succeed (ran first) or fail (poisoned)
		}()
		wg.Wait()
		crashStop(j)

		back, err := OpenJournal(dir, NewSharded(4), JournalOptions{})
		if err != nil {
			t.Fatalf("iteration %d: reopen: %v", i, err)
		}
		if _, err := back.Problem("base"); err != nil {
			t.Fatalf("iteration %d: acknowledged mutation lost: %v", i, err)
		}
		_, probeErr := back.Problem("doomed")
		if addErr != nil && probeErr == nil {
			t.Fatalf("iteration %d: failed mutation resurrected by a compaction snapshot", i)
		}
		// The wrapper survives compaction, so the add fails either way;
		// should it ever succeed, it must be durable.
		if addErr == nil && probeErr != nil {
			t.Fatalf("iteration %d: acknowledged mutation lost: %v", i, probeErr)
		}
		_ = back.Close()
	}
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
