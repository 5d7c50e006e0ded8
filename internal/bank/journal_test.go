package bank

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reopen closes j (which compacts) and opens a fresh journal over a new
// backend of the same directory.
func reopen(t *testing.T, j *Journal) *Journal {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	back, err := OpenJournal(j.Dir(), NewSharded(4), JournalOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { _ = back.Close() })
	return back
}

// crashStop abandons j as a process crash would: already-submitted records
// drain to the WAL (they were handed to the kernel before the "crash"),
// but no compaction runs and the journal refuses further use.
func crashStop(j *Journal) {
	j.mu.Lock()
	j.closed = true
	j.mu.Unlock()
	j.stopCommitter()
	_ = j.wal.Close()
}

// crashReopen abandons j without compacting — as a crash would — and opens a
// fresh journal that must rebuild purely from snapshot + WAL replay.
func crashReopen(t *testing.T, j *Journal) *Journal {
	t.Helper()
	crashStop(j)
	back, err := OpenJournal(j.Dir(), NewSharded(4), JournalOptions{})
	if err != nil {
		t.Fatalf("crash reopen: %v", err)
	}
	t.Cleanup(func() { _ = back.Close() })
	return back
}

func TestJournalReplayAfterReopen(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, NewSharded(4), JournalOptions{CompactEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.AddProblem(confMC(t, fmt.Sprintf("q%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	upd := confMC(t, "q2")
	upd.Question = "second thoughts"
	if err := j.UpdateProblem(upd); err != nil {
		t.Fatal(err)
	}
	if err := j.DeleteProblem("q4"); err != nil {
		t.Fatal(err)
	}
	if err := j.AddExam(&ExamRecord{ID: "e", ProblemIDs: []string{"q0", "q1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Rollback("q2"); err != nil {
		t.Fatal(err)
	}

	// Crash-style reopen: everything, including revision history, must come
	// back from pure WAL replay (compaction folds history into the current
	// state, matching Save/Load semantics — so the crash path is the one
	// that exercises history).
	back := crashReopen(t, j)
	if got := back.ProblemCount(); got != 4 {
		t.Errorf("replayed ProblemCount = %d, want 4", got)
	}
	p, err := back.Problem("q2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Question != "question for q2" {
		t.Errorf("rollback not replayed: question = %q", p.Question)
	}
	if got := back.Version("q2"); got != 2 {
		t.Errorf("replayed Version(q2) = %d, want 2", got)
	}
	if hist := back.History("q2"); len(hist) != 1 || hist[0].Problem.Question != "second thoughts" {
		t.Errorf("replayed history = %+v", hist)
	}
	if _, err := back.Exam("e"); err != nil {
		t.Errorf("replayed exam missing: %v", err)
	}
}

// TestJournalWALDoesNotRewriteBank: the whole point of the WAL — each write
// appends, it does not rewrite the full bank. Verified by watching the
// snapshot stay absent until compaction while the WAL grows linearly.
func TestJournalWALAppendOnly(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, New(), JournalOptions{CompactEvery: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	snapshotPath, walPath := journalPaths(dir)
	var lastSize int64
	for i := 0; i < 20; i++ {
		if err := j.AddProblem(confMC(t, fmt.Sprintf("q%02d", i))); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() <= lastSize {
			t.Fatalf("wal did not grow on write %d", i)
		}
		lastSize = st.Size()
		if _, err := os.Stat(snapshotPath); err == nil {
			t.Fatal("snapshot written before compaction threshold")
		}
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(raw), "\n"); got != 20 {
		t.Errorf("wal lines = %d, want 20", got)
	}
}

// TestJournalWALLineEncoding: for every op, each line the committer writes
// is exactly json.Marshal of the record with the journal's epoch plus a
// newline, so splicing the epoch into a record encoded without it keeps
// the WAL byte-identical to encoding it whole.
func TestJournalWALLineEncoding(t *testing.T) {
	for _, epoch := range []int64{0, 1, 1 << 40} {
		t.Run(fmt.Sprint(epoch), func(t *testing.T) {
			j, err := OpenJournal(t.TempDir(), NewSharded(2), JournalOptions{CompactEvery: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			j.mu.Lock()
			j.epoch = epoch
			j.mu.Unlock()
			p1, p2 := confMC(t, "p1"), confMC(t, "p2")
			p1v2 := confMC(t, "p1")
			p1v2.Question = "revised"
			exam := &ExamRecord{ID: "e", ProblemIDs: []string{"p1"}}
			exam2 := &ExamRecord{ID: "e", ProblemIDs: []string{"p1", "p2"}, Title: "E & <b>"}
			sess := &AdaptiveSessionRecord{ID: "cat-1", ExamID: "e", State: AdaptiveStateActive,
				MaxItems: 5, Administered: []string{"p2"}, Correct: []bool{true}, Theta: -0.25,
				PendingID: "p1"}
			steps := []struct {
				do   func() error
				want walRecord
			}{
				{func() error { return j.AddProblem(p1) }, walRecord{Op: opAddProblem, Problem: p1}},
				{func() error { return j.AddProblem(p2) }, walRecord{Op: opAddProblem, Problem: p2}},
				{func() error { return j.UpdateProblem(p1v2) }, walRecord{Op: opUpdateProblem, Problem: p1v2}},
				{func() error { _, err := j.Rollback("p1"); return err }, walRecord{Op: opRollback, ID: "p1", Problem: p1}},
				{func() error { return j.AddExam(exam) }, walRecord{Op: opAddExam, Exam: exam}},
				{func() error { return j.UpdateExam(exam2) }, walRecord{Op: opUpdateExam, Exam: exam2}},
				{func() error { return j.PutAdaptiveSession(sess) }, walRecord{Op: opPutAdaptive, Session: sess}},
				{func() error { return j.DeleteAdaptiveSession("cat-1") }, walRecord{Op: opDeleteAdaptive, ID: "cat-1"}},
				{func() error { return j.DeleteExam("e") }, walRecord{Op: opDeleteExam, ID: "e"}},
				{func() error { return j.DeleteProblem("p2") }, walRecord{Op: opDeleteProblem, ID: "p2"}},
			}
			for _, s := range steps {
				if err := s.do(); err != nil {
					t.Fatalf("%s: %v", s.want.Op, err)
				}
			}
			crashStop(j)
			raw, err := os.ReadFile(j.walPath)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(raw, []byte("\n"))
			if len(lines) != len(steps)+1 || len(lines[len(steps)]) != 0 {
				t.Fatalf("wal holds %d lines, want %d", len(lines)-1, len(steps))
			}
			for i, s := range steps {
				s.want.Epoch = epoch
				want, err := json.Marshal(s.want)
				if err != nil {
					t.Fatal(err)
				}
				if want = append(want, '\n'); !bytes.Equal(lines[i], want) {
					t.Errorf("%s line:\n got %s want %s", s.want.Op, lines[i], want)
				}
			}
		})
	}
}

func TestJournalCompactionTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, NewSharded(2), JournalOptions{CompactEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // crosses the threshold at least twice
		if err := j.AddProblem(confMC(t, fmt.Sprintf("q%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Automatic compaction is asynchronous — it runs on the committer
	// goroutine, off the mutation path — so wait for it to settle: once
	// quiescent, a snapshot exists and the WAL holds fewer lines than
	// CompactEvery (the exact count depends on how writes interleaved
	// with the background compactions).
	snapshotPath, walPath := journalPaths(dir)
	waitFor(t, func() bool {
		if _, err := os.Stat(snapshotPath); err != nil {
			return false
		}
		raw, err := os.ReadFile(walPath)
		return err == nil && strings.Count(string(raw), "\n") < 5
	}, "snapshot written and WAL truncated below CompactEvery")
	back := reopen(t, j)
	if got := back.ProblemCount(); got != 12 {
		t.Errorf("post-compaction reopen count = %d, want 12", got)
	}
}

// waitFor polls cond until it holds or a generous deadline passes —
// needed wherever a test observes the committer's asynchronous
// maintenance work.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for: %s", what)
}

// TestJournalTornTailRecovered: a crash mid-append leaves a partial last
// line; reopen must recover everything before it and keep working.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, New(), JournalOptions{CompactEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.AddProblem(confMC(t, fmt.Sprintf("q%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash: close without compacting, then tear the tail.
	crashStop(j)
	_, walPath := journalPaths(dir)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"add_problem","problem":{"id":"tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	back, err := OpenJournal(dir, New(), JournalOptions{CompactEvery: 1000})
	if err != nil {
		t.Fatalf("reopen over torn wal: %v", err)
	}
	if got := back.ProblemCount(); got != 3 {
		t.Errorf("recovered count = %d, want 3", got)
	}
	if err := back.AddProblem(confMC(t, "after")); err != nil {
		t.Errorf("write after torn-tail recovery: %v", err)
	}
	// The torn bytes must have been truncated before that append: a second
	// crash-style reopen replays a clean WAL (torn tail + append would
	// otherwise have fused into one corrupt record).
	again := crashReopen(t, back)
	if got := again.ProblemCount(); got != 4 {
		t.Errorf("second reopen count = %d, want 4 (wal corrupted by post-recovery append?)", got)
	}
	if _, err := again.Problem("after"); err != nil {
		t.Errorf("post-recovery write lost: %v", err)
	}
}

// TestJournalCorruptRecord: a complete WAL record that cannot be replayed —
// an unparsable JSON line before the last record, or a frame left by the
// removed binary record format — fails the reopen with an error naming
// the record, is never skipped or cut, and leaves wal.log byte-identical.
func TestJournalCorruptRecord(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(first, rest []byte) []byte
	}{
		{"unparsable-json", "record 1 at byte 0", func(first, rest []byte) []byte {
			return append(append(first[:len(first)/2:len(first)/2], '\n'), rest...)
		}},
		{"binary-frame", "removed binary record format", func(first, rest []byte) []byte {
			frame := []byte("\xb1\x01\x05\x00\x00\x00\x00\x00\x00\x00\x01\x00\x02q1")
			return bytes.Join([][]byte{first, frame, rest}, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := OpenJournal(dir, NewSharded(4), JournalOptions{CompactEvery: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := j.AddProblem(confMC(t, fmt.Sprintf("q%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			crashStop(j)
			raw, err := os.ReadFile(j.walPath)
			if err != nil {
				t.Fatal(err)
			}
			first, rest, _ := bytes.Cut(raw, []byte("\n"))
			raw = tc.corrupt(append(first, '\n'), rest)
			if err := os.WriteFile(j.walPath, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenJournal(dir, NewSharded(4), JournalOptions{}); err == nil ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("reopen over a corrupt record = %v, want an error containing %q", err, tc.want)
			}
			if after, err := os.ReadFile(j.walPath); err != nil || !bytes.Equal(after, raw) {
				t.Errorf("failed reopen changed wal.log (%v)", err)
			}
		})
	}
}

// TestCompactProgressesUnderSaturatedWriters: with writers continuously
// refilling the commit queue, an explicit Compact() must still complete
// (its scan takes the queue instead of waiting for it to empty), the
// writers must keep going, and a crash afterwards must replay every
// acknowledged write exactly once, whether it committed before, with or
// after the compaction.
func TestCompactProgressesUnderSaturatedWriters(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, NewSharded(8), JournalOptions{CompactEvery: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var acked atomic.Int64
	ackedIDs := make([][]string, 8) // one slice per writer, read after wg.Wait
	for w := range ackedIDs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := j.AddProblem(confMC(t, id)); err != nil {
					t.Errorf("AddProblem(%s): %v", id, err)
					return
				}
				ackedIDs[w] = append(ackedIDs[w], id)
				acked.Add(1)
			}
		}(w)
	}
	// Let the writers reach a steady saturated state first.
	for acked.Load() < 64 {
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- j.Compact() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Compact under saturation: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Compact starved by saturated writers")
	}
	if _, err := os.Stat(j.snapshotPath); err != nil {
		t.Errorf("compaction reported success but no snapshot exists: %v", err)
	}
	// The journal must stay usable after the compaction.
	before := acked.Load()
	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if acked.Load() == before {
		t.Error("writers did not resume after compaction")
	}
	close(stop)
	wg.Wait()

	back := crashReopen(t, j) // snapshot + WAL, no closing compaction
	n := 0
	for _, ids := range ackedIDs {
		for _, id := range ids {
			n++
			if _, err := back.Problem(id); err != nil {
				t.Errorf("acknowledged %s lost: %v", id, err)
			} else if v := back.Version(id); v != 1 {
				t.Errorf("%s replayed at version %d, want 1", id, v)
			}
		}
	}
	if got := back.ProblemCount(); got != n {
		t.Errorf("recovered %d problems, want the %d acknowledged", got, n)
	}
}

func TestOpenBackendSelection(t *testing.T) {
	dir := t.TempDir()
	bankPath := filepath.Join(dir, "bank.json")
	seed := New()
	for i := 0; i < 4; i++ {
		if err := seed.AddProblem(confMC(t, fmt.Sprintf("q%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.AddExam(&ExamRecord{ID: "e", ProblemIDs: []string{"q0"}}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Save(bankPath); err != nil {
		t.Fatal(err)
	}

	s, err := Open(bankPath, Options{Backend: "sharded", Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Sharded); !ok {
		t.Fatalf("backend = %T, want *Sharded", s)
	}
	if got := s.ProblemCount(); got != 4 {
		t.Errorf("loaded count = %d", got)
	}

	// Journaled open: first boot imports the bank file...
	jdir := filepath.Join(dir, "journal")
	js, err := Open(bankPath, Options{Backend: "sharded", Journal: jdir})
	if err != nil {
		t.Fatal(err)
	}
	j := js.(*Journal)
	if got := j.ProblemCount(); got != 4 {
		t.Errorf("journal first boot count = %d", got)
	}
	if err := j.AddProblem(confMC(t, "q9")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// ...second boot replays the journal and must NOT re-import.
	js2, err := Open(bankPath, Options{Backend: "sharded", Journal: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer js2.(*Journal).Close()
	if got := js2.ProblemCount(); got != 5 {
		t.Errorf("journal second boot count = %d, want 5", got)
	}

	if _, err := Open(bankPath, Options{Backend: "bogus"}); err == nil {
		t.Error("bogus backend accepted")
	}
}

// TestJournalConcurrentWriters: appends serialize correctly under parallel
// mutation; run with -race.
func TestJournalConcurrentWriters(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), NewSharded(8), JournalOptions{CompactEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.AddProblem(confMC(t, fmt.Sprintf("q%02d", i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	back := reopen(t, j)
	if got := back.ProblemCount(); got != n {
		t.Errorf("recovered %d problems, want %d", got, n)
	}
}

// TestJournalRollbackAfterCompactionCrash: a rollback journaled after a
// compaction (which folds history into the snapshot) must still replay —
// the record carries the restored state and replays as an update when the
// recovered backend has no history to pop.
func TestJournalRollbackAfterCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, NewSharded(2), JournalOptions{CompactEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	p := confMC(t, "p1")
	p.Question = "v1"
	if err := j.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	p2 := p.Clone()
	p2.Question = "v2"
	if err := j.UpdateProblem(p2); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil { // snapshot drops history
		t.Fatal(err)
	}
	restored, err := j.Rollback("p1")
	if err != nil {
		t.Fatal(err)
	}
	if restored.Question != "v1" {
		t.Fatalf("rollback restored %q", restored.Question)
	}

	back := crashReopen(t, j) // replay snapshot + [rollback] record
	got, err := back.Problem("p1")
	if err != nil {
		t.Fatalf("reopen after post-compaction rollback: %v", err)
	}
	if got.Question != "v1" {
		t.Errorf("replayed current question = %q, want v1", got.Question)
	}
}

// TestJournalDanglingExamSurvivesCompaction: deleting a problem an exam
// still references is legal, so a compaction snapshot of that state must
// reopen (the exam loads without reference validation) instead of bricking
// the journal.
func TestJournalDanglingExamSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, NewSharded(2), JournalOptions{CompactEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AddProblem(confMC(t, "p1")); err != nil {
		t.Fatal(err)
	}
	if err := j.AddProblem(confMC(t, "p2")); err != nil {
		t.Fatal(err)
	}
	if err := j.AddExam(&ExamRecord{ID: "e1", ProblemIDs: []string{"p1", "p2"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.DeleteProblem("p1"); err != nil {
		t.Fatal(err)
	}

	back := reopen(t, j) // Close compacts the dangling state into a snapshot
	e, err := back.Exam("e1")
	if err != nil {
		t.Fatalf("dangling exam lost across compaction: %v", err)
	}
	if len(e.ProblemIDs) != 2 {
		t.Errorf("exam problem list altered: %v", e.ProblemIDs)
	}
	if _, err := back.Problem("p1"); err == nil {
		t.Error("deleted problem resurrected")
	}
	// Direct AddExam with a dangling reference still errors (the tolerance
	// is snapshot-load only).
	if err := back.AddExam(&ExamRecord{ID: "e2", ProblemIDs: []string{"ghost"}}); err == nil {
		t.Error("live AddExam with dangling reference accepted")
	}
}

// TestJournalCompactionCrashOverlap: a crash between compaction's snapshot
// rename and the WAL truncation leaves every WAL record already folded into
// the snapshot. An epoch-stamped snapshot (what compactLocked writes) makes
// replay skip the stale records outright; an epoch-less snapshot (legacy /
// hand-built) falls back to redo tolerance. Both must boot to the same
// state, with no duplicated revision history.
func TestJournalCompactionCrashOverlap(t *testing.T) {
	for _, mode := range []string{"epoch-stamped", "legacy"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			j, err := OpenJournal(dir, NewSharded(2), JournalOptions{CompactEvery: 1000})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := j.AddProblem(confMC(t, fmt.Sprintf("q%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			upd := confMC(t, "q1")
			upd.Question = "revised"
			if err := j.UpdateProblem(upd); err != nil {
				t.Fatal(err)
			}
			if err := j.DeleteProblem("q3"); err != nil {
				t.Fatal(err)
			}
			if err := j.AddExam(&ExamRecord{ID: "e", ProblemIDs: []string{"q0"}}); err != nil {
				t.Fatal(err)
			}
			// Simulate the crash window: snapshot published, WAL NOT
			// truncated.
			snapshotPath, _ := journalPaths(dir)
			snap, err := buildSnapshot(j)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "epoch-stamped" {
				snap.WalEpoch = j.epoch + 1
			}
			if _, err := writeSnapshotFile(snap, snapshotPath); err != nil {
				t.Fatal(err)
			}

			back := crashReopen(t, j)
			if got := back.ProblemCount(); got != 3 {
				t.Errorf("overlap replay count = %d, want 3", got)
			}
			p, err := back.Problem("q1")
			if err != nil || p.Question != "revised" {
				t.Errorf("overlap replay q1 = %v, %v", p, err)
			}
			if mode == "epoch-stamped" {
				// Stale records skipped entirely: the folded update must
				// not re-apply and inflate the version.
				if got := back.Version("q1"); got != 1 {
					t.Errorf("version inflated by overlap replay: %d", got)
				}
			}
			if _, err := back.Problem("q3"); err == nil {
				t.Error("deleted problem resurrected by overlap replay")
			}
			if _, err := back.Exam("e"); err != nil {
				t.Errorf("exam lost in overlap replay: %v", err)
			}
		})
	}
}

// TestJournalAdaptiveSessionReplay proves adaptive-session mutations are
// journaled and replayed across reopen — the crash-safe live-CAT path.
func TestJournalAdaptiveSessionReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, New(), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	put := func(rec *AdaptiveSessionRecord) {
		t.Helper()
		if err := j.PutAdaptiveSession(rec); err != nil {
			t.Fatal(err)
		}
	}
	put(&AdaptiveSessionRecord{ID: "cat-1", ExamID: "pool", State: AdaptiveStateActive,
		MaxItems: 5, PendingID: "q1"})
	put(&AdaptiveSessionRecord{ID: "cat-1", ExamID: "pool", State: AdaptiveStateActive,
		MaxItems: 5, Administered: []string{"q1"}, Correct: []bool{true},
		Theta: 0.8, PendingID: "q2"})
	put(&AdaptiveSessionRecord{ID: "cat-2", ExamID: "pool", State: AdaptiveStateFinished,
		MaxItems: 5, StopReason: "max-items"})
	if err := j.DeleteAdaptiveSession("cat-2"); err != nil {
		t.Fatal(err)
	}
	// Close WITHOUT compacting would be ideal; Close compacts, so reopen
	// twice: once from the WAL (no close), once from the snapshot.
	reopened, err := OpenJournal(dir, New(), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.AdaptiveSession("cat-1")
	if err != nil || got.PendingID != "q2" || got.Theta != 0.8 {
		t.Fatalf("replayed session = %+v, %v", got, err)
	}
	if _, err := reopened.AdaptiveSession("cat-2"); !errors.Is(err, ErrAdaptiveSessionNotFound) {
		t.Errorf("deleted session survived replay: %v", err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	fromSnapshot, err := OpenJournal(dir, New(), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fromSnapshot.Close()
	if got, err := fromSnapshot.AdaptiveSession("cat-1"); err != nil || got.PendingID != "q2" {
		t.Fatalf("compacted session = %+v, %v", got, err)
	}
}
