package bank

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mineassess/internal/item"
	"mineassess/internal/obs"
	"mineassess/internal/wal"
)

// Storage is the problem & exam database contract. The engine, the authoring
// tools and the CLIs program against this interface; *Sharded is the
// in-memory implementation (New gives the single-shard profile) and a
// *Journal wraps it with write-ahead durability.
//
// All implementations copy on the way in and on the way out: callers never
// share memory with the store, so a returned problem can be mutated freely.
type Storage interface {
	// Problems.
	AddProblem(p *item.Problem) error
	UpdateProblem(p *item.Problem) error
	Problem(id string) (*item.Problem, error)
	DeleteProblem(id string) error
	ProblemCount() int
	ProblemIDs() []string
	Problems(ids []string) ([]*item.Problem, error)

	// Exams.
	AddExam(e *ExamRecord) error
	UpdateExam(e *ExamRecord) error
	Exam(id string) (*ExamRecord, error)
	DeleteExam(id string) error
	ExamIDs() []string

	// Adaptive sessions: persisted live-CAT sitting state (upsert
	// semantics on Put; see adaptive_record.go).
	PutAdaptiveSession(rec *AdaptiveSessionRecord) error
	AdaptiveSession(id string) (*AdaptiveSessionRecord, error)
	DeleteAdaptiveSession(id string) error
	AdaptiveSessionIDs() []string

	// Search and browse.
	Search(q Query) []*item.Problem
	Subjects() []string
	CountByStyle() map[item.Style]int

	// Revision history.
	History(id string) []Revision
	Rollback(id string) (*item.Problem, error)
	Version(id string) int

	// Persistence: Save exports the full contents as one JSON bank file.
	Save(path string) error
}

// Compile-time conformance of the built-in backends.
var (
	_ Storage = (*Sharded)(nil)
	_ Storage = (*Journal)(nil)
)

// WriteSnapshot exports any Storage as a bank JSON file (the same format
// Save writes and Load reads). The write goes through a temp file +
// rename so readers never observe a torn snapshot. The scan takes no
// scan-wide lock on any backend, so concurrent mutations interleave: a
// record deleted between the ID listing and the fetch is omitted, and the
// result may mix before/after states of concurrent updates — each record is
// internally consistent, and exams whose problems were deleted mid-scan
// still load (see loadSnapshot). Callers needing a point-in-time snapshot
// must quiesce writers (the Journal's compaction does: it holds the
// mutation lock).
func WriteSnapshot(s Storage, path string) error {
	snap, err := buildSnapshot(s)
	if err != nil {
		return err
	}
	_, err = writeSnapshotFile(snap, path)
	return err
}

// buildSnapshot scans a Storage into snapshot records (see WriteSnapshot
// for the consistency contract).
func buildSnapshot(s Storage) (*snapshot, error) {
	snap := &snapshot{}
	for _, id := range s.ProblemIDs() {
		p, err := s.Problem(id)
		if errors.Is(err, ErrProblemNotFound) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("bank: snapshot problem %s: %w", id, err)
		}
		snap.Problems = append(snap.Problems, p)
	}
	for _, id := range s.ExamIDs() {
		e, err := s.Exam(id)
		if errors.Is(err, ErrExamNotFound) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("bank: snapshot exam %s: %w", id, err)
		}
		snap.Exams = append(snap.Exams, e)
	}
	for _, id := range s.AdaptiveSessionIDs() {
		rec, err := s.AdaptiveSession(id)
		if errors.Is(err, ErrAdaptiveSessionNotFound) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("bank: snapshot adaptive session %s: %w", id, err)
		}
		snap.AdaptiveSessions = append(snap.AdaptiveSessions, rec)
	}
	return snap, nil
}

// writeSnapshotFile marshals a snapshot and publishes it atomically (temp
// file + fsync + rename + directory fsync). published reports whether the
// rename landed: a post-rename failure (directory fsync) means the new
// snapshot IS visible even though it is not yet durable — callers that key
// state off the snapshot's content (the journal's epoch) must honour a
// published snapshot despite the error.
func writeSnapshotFile(snap *snapshot, path string) (published bool, err error) {
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return false, fmt.Errorf("bank: marshal snapshot: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return false, fmt.Errorf("bank: create %s: %w", tmp, err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return false, fmt.Errorf("bank: write %s: %w", tmp, err)
	}
	// Sync before rename so the rename never publishes an unflushed file.
	if err := f.Sync(); err != nil {
		f.Close()
		return false, fmt.Errorf("bank: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("bank: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return false, fmt.Errorf("bank: rename snapshot: %w", err)
	}
	// Fsync the directory so the rename itself is durable before callers
	// take dependent actions — compaction truncates the WAL next, and a
	// power failure must not revert to the old snapshot beside an
	// already-empty WAL.
	if err := wal.SyncDir(filepath.Dir(path)); err != nil {
		return true, err
	}
	return true, nil
}

// LoadInto reads a bank file written by Save/WriteSnapshot into an existing
// Storage. Every problem is re-validated on the way in.
func LoadInto(path string, dst Storage) error {
	snap, err := readSnapshotFile(path)
	if err != nil {
		return err
	}
	return loadSnapshot(snap, dst)
}

// readSnapshotFile parses a bank file into its snapshot records.
func readSnapshotFile(path string) (*snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bank: read %s: %w", path, err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("bank: parse %s: %w", path, err)
	}
	return &snap, nil
}

// examPutter is the unchecked exam-insert hook the built-in backends
// provide for snapshot loading.
type examPutter interface {
	putExamUnchecked(e *ExamRecord) error
}

// loadSnapshot adds parsed records into a Storage. Exams whose referenced
// problems are absent are loaded without reference validation when the
// backend supports it: deleting a problem an exam still references is legal
// on every backend, so a snapshot of that state must round-trip rather than
// brick the reload. Such an exam is preserved but not servable —
// delivery.Engine.Start errors on the missing problem until it is restored
// or the exam record is replaced.
func loadSnapshot(snap *snapshot, dst Storage) error {
	for _, p := range snap.Problems {
		if err := dst.AddProblem(p); err != nil {
			return fmt.Errorf("bank: load problem: %w", err)
		}
	}
	for _, e := range snap.Exams {
		err := dst.AddExam(e)
		if errors.Is(err, ErrProblemNotFound) {
			if putter, ok := dst.(examPutter); ok {
				err = putter.putExamUnchecked(e)
			}
		}
		if err != nil {
			return fmt.Errorf("bank: load exam: %w", err)
		}
	}
	for _, rec := range snap.AdaptiveSessions {
		if err := dst.PutAdaptiveSession(rec); err != nil {
			return fmt.Errorf("bank: load adaptive session: %w", err)
		}
	}
	return nil
}

// Options selects a storage backend for Open.
type Options struct {
	// Backend names the in-memory backend; "" and "sharded" both select
	// the sharded store, the only one there is.
	Backend string
	// Shards is the sharded backend's shard count; 0 means DefaultShards.
	Shards int
	// Journal, when non-empty, is a directory holding the write-ahead log
	// and its snapshot; mutations are journaled and replayed on reopen.
	Journal string
	// CompactEvery bounds WAL growth (see OpenJournal); 0 means the default.
	CompactEvery int
	// Sync selects the journal's WAL sync policy; empty means
	// wal.SyncGroup. Ignored without a journal.
	Sync wal.SyncPolicy
	// Obs, when non-nil, receives the journal's metrics (see
	// JournalOptions.Obs). Ignored without a journal.
	Obs *obs.Registry
}

// Open builds a Storage from options. When journaling is enabled the
// journal directory is authoritative: the bank file at path seeds it only
// on first boot (no journal files exist yet), and a missing seed file on
// first boot is an error — pass an empty path to start a journal with no
// seed. Without a journal, the bank file is loaded directly (a missing path
// errors, matching Load).
func Open(path string, o Options) (Storage, error) {
	if o.Backend != "" && o.Backend != "sharded" {
		return nil, fmt.Errorf("bank: unknown backend %q (want sharded)", o.Backend)
	}
	backend := NewSharded(o.Shards)
	if o.Journal == "" {
		if err := LoadInto(path, backend); err != nil {
			return nil, err
		}
		return backend, nil
	}
	if err := os.MkdirAll(o.Journal, 0o755); err != nil {
		return nil, fmt.Errorf("bank: journal dir: %w", err)
	}
	// First boot = no journal files exist yet. Emptiness of the recovered
	// state is NOT the test: an operator who journaled deletions down to an
	// empty bank must not have stale bank-file records resurrected on
	// restart.
	snapshotPath, walPath := journalPaths(o.Journal)
	_, snapErr := os.Stat(snapshotPath)
	_, walErr := os.Stat(walPath)
	firstBoot := os.IsNotExist(snapErr) && os.IsNotExist(walErr)
	if firstBoot && path != "" {
		// Check the seed file BEFORE creating any journal files: a typo'd
		// -bank path must fail this boot, not silently consume first-boot
		// status and make the (empty) journal authoritative forever. Pass
		// an empty path to start a journal with no seed.
		if _, err := os.Stat(path); err != nil {
			return nil, fmt.Errorf("bank: first-boot seed: %w", err)
		}
		snap, err := readSnapshotFile(path)
		if err != nil {
			return nil, err
		}
		// Validate the parsed records in a scratch store before touching
		// the journal directory.
		if err := loadSnapshot(snap, New()); err != nil {
			return nil, err
		}
		// Publish the seed as the journal's initial snapshot in one atomic
		// rename, before any WAL exists. A crash at any moment leaves
		// either no journal files (next boot reseeds from scratch) or the
		// complete snapshot (next boot replays it fully) — a partial seed
		// is impossible.
		if _, err := writeSnapshotFile(snap, snapshotPath); err != nil {
			return nil, err
		}
	}
	return OpenJournal(o.Journal, backend, JournalOptions{
		CompactEvery: o.CompactEvery,
		Sync:         o.Sync,
		Obs:          o.Obs,
	})
}

// journalPaths returns the snapshot and WAL file paths inside dir.
func journalPaths(dir string) (snapshotPath, walPath string) {
	return filepath.Join(dir, "bank.json"), filepath.Join(dir, "wal.log")
}
