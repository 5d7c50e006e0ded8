package bank

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mineassess/internal/item"
	"mineassess/internal/obs"
	"mineassess/internal/trace"
	"mineassess/internal/wal"
)

// ErrJournalClosed is returned by every operation on a closed or poisoned
// journal, and wraps the failure that poisoned it: the server has stopped
// persisting, whatever the request was.
var ErrJournalClosed = errors.New("bank: journal is closed")

// Journal adds write-ahead durability to a Sharded backend. Instead of
// rewriting the whole bank file on every change (Save is O(bank)), each
// mutation appends one JSON line to a WAL; reopening the journal replays
// snapshot + WAL to rebuild the backend. Once CompactEvery
// mutations accumulate, the journal folds the WAL into a fresh snapshot and
// truncates it, bounding both recovery time and log growth.
//
// Write path (group commit): a mutation encodes its record first, outside
// any lock, so a value that cannot be encoded fails its own write and
// changes nothing. It then applies to the backend and enqueues the record
// under a short ordering lock — the only serialization point — and blocks
// until a dedicated committer goroutine has made it durable. The committer
// drains the queue in order, coalescing everything queued since its last
// pass into one batched write plus (policy permitting) one fsync, and wakes
// every waiter in the batch afterwards. Concurrent writers therefore
// overlap their encoding and share fsyncs instead of serializing apply +
// encode + write + sync through one critical section; reads delegate
// straight to the backend and take no journal lock at all, so the backend's
// concurrency (per-shard locks for *Sharded) is preserved.
//
// Durability is governed by wal.SyncPolicy, and the WAL file itself is a
// wal.File:
//
//   - group: an acknowledged mutation has been fsynced and survives OS
//     crash and power failure; the fsync is amortized across the batch.
//   - none: appends ride the OS page cache. Process-crash-safe (the
//     kernel completes the write), but a power failure can lose the most
//     recent acknowledged mutations.
//
// Under every policy replay drops at most a torn final record, and
// snapshots are fsynced before the rename that publishes them, so a
// compacted state is never torn. If a WAL append itself fails (disk full),
// the journal poisons itself: the failed batch is live in memory but not
// durable, and refusing further writes keeps the divergence bounded until
// a restart replays the WAL.
//
// Compaction runs on the committer goroutine, off every mutation's call
// path: the backend scan takes the ordering lock (memory-speed, writers
// briefly quiesced — this is what makes the snapshot a consistent cut) and,
// with it, takes the queue and advances the epoch. The taken records commit
// first; only then do the snapshot file I/O, rename and WAL truncation
// happen, with no lock held. Mutations submitted during the file I/O queue
// up and commit in the next batch.
//
// Revision history follows the bank file's long-standing semantics: Save
// never persisted history, so compaction folds superseded revisions into the
// current state. Until a compaction runs, WAL replay reconstructs history
// exactly (update and rollback records re-execute).
type Journal struct {
	backend *Sharded
	policy  wal.SyncPolicy

	dir          string
	snapshotPath string
	walPath      string
	compactEvery int

	// mu is the ordering lock: it serializes backend apply + queue append
	// (so WAL order always matches apply order) and guards the lifecycle
	// flags and epoch. It is never held across file I/O.
	mu         sync.Mutex
	queue      []*pendingCommit
	closed     bool  // Close called; no further mutations
	poisoned   bool  // WAL can no longer be trusted; see commitBatch
	epoch      int64 // counts compactions; see the epoch comment below
	compactErr error // last automatic-compaction failure (see CompactError)

	// Committer-goroutine state: the WAL file, the mutation count since the
	// last compaction and the reused batch buffer are touched only on the
	// committer (and by Open/Close while no committer runs), never under mu.
	wal   *wal.File
	dirty int
	buf   []byte
	ends  []int

	kick          chan struct{}   // wakes the committer; cap 1
	compactReqs   chan chan error // explicit Compact runs on the committer
	quit          chan struct{}
	committerDone chan struct{}
	stopOnce      sync.Once

	// Metrics cells, nil unless JournalOptions.Obs was set. The handles are
	// nil-safe, but timed sections also guard on nil so the disabled path
	// never pays a clock read.
	mCommit     *obs.Histogram // apply → durable-ack latency, labeled by policy
	mBatch      *obs.Histogram // records coalesced per commit batch
	mFsync      *obs.Counter   // WAL fsync calls
	mWALBytes   *obs.Counter   // bytes appended to the WAL
	mCompacts   *obs.Counter   // compaction passes
	mCompactDur *obs.Histogram // compaction pass duration
}

// The epoch counts compactions. Every WAL record carries the epoch it was
// written under and the snapshot records the epoch it folded up to, so a
// crash between the snapshot rename and the WAL truncation is harmless:
// replay skips records from epochs the snapshot already contains instead of
// re-applying them.
//
// The queue only ever holds records of the current epoch: apply + enqueue
// and a compaction's scan + queue take + epoch bump all happen under mu. So
// a writer need not know its record's epoch: it encodes the record at epoch
// zero, and the committer stamps the epoch it reads together with the queue
// (see appendRecord).

// pendingCommit is one enqueued mutation waiting for the committer. The
// writer fills line before enqueueing it; the committer fills err and
// closes done.
type pendingCommit struct {
	line []byte // the record encoded at epoch zero (see encodeRecord)

	done chan struct{}
	err  error

	// Commit-phase annotations, written by the committer before done is
	// closed and read by the waiter afterwards (the done close orders them).
	// enqueuedAt is stamped by the writer at submit; batchStart is when the
	// committer picked the record's batch up, writeDone when its WAL write
	// returned, syncDone when it became durable under the sync policy. A
	// traced mutation reconstructs its enqueue-wait / batch-wait / fsync
	// child spans from these; untraced mutations skip the stamps entirely
	// (enqueuedAt stays zero), so the untraced hot path pays nothing.
	enqueuedAt time.Time
	batchStart time.Time
	writeDone  time.Time
	syncDone   time.Time
	batchSize  int32
}

// DefaultCompactEvery is the WAL length that triggers automatic compaction.
const DefaultCompactEvery = 4096

// walRecord is one journaled mutation.
type walRecord struct {
	Op      string                 `json:"op"`
	Problem *item.Problem          `json:"problem,omitempty"`
	Exam    *ExamRecord            `json:"exam,omitempty"`
	Session *AdaptiveSessionRecord `json:"session,omitempty"`
	ID      string                 `json:"id,omitempty"`
	// Epoch is the journal epoch the record was written under (see
	// Journal.epoch). It must stay the last field and omitempty: appendRecord
	// splices it into a record encoded without it.
	Epoch int64 `json:"epoch,omitempty"`
}

// WAL operation names.
const (
	opAddProblem     = "add_problem"
	opUpdateProblem  = "update_problem"
	opDeleteProblem  = "delete_problem"
	opAddExam        = "add_exam"
	opUpdateExam     = "update_exam"
	opDeleteExam     = "delete_exam"
	opRollback       = "rollback"
	opPutAdaptive    = "put_adaptive_session"
	opDeleteAdaptive = "delete_adaptive_session"
)

// JournalOptions configures OpenJournal; zero values mean the defaults
// (DefaultCompactEvery, wal.SyncGroup, no metrics).
type JournalOptions struct {
	CompactEvery int
	Sync         wal.SyncPolicy
	// Obs, when non-nil, receives the journal's metrics (commit latency per
	// sync policy, batch-size distribution, fsync count, WAL bytes,
	// compaction passes/duration, and whether a failure poisoned it). Nil
	// leaves the hot paths uninstrumented.
	Obs *obs.Registry
}

// OpenJournal opens (or creates) the journal in dir over the given backend,
// replaying any existing snapshot and WAL into it. The backend must be
// empty; a nil backend means New().
func OpenJournal(dir string, backend *Sharded, opts JournalOptions) (*Journal, error) {
	policy, err := wal.ParseSyncPolicy(string(opts.Sync))
	if err != nil {
		return nil, err
	}
	compactEvery := opts.CompactEvery
	if backend == nil {
		backend = New()
	}
	if backend.ProblemCount() != 0 || len(backend.ExamIDs()) != 0 ||
		len(backend.AdaptiveSessionIDs()) != 0 {
		return nil, errors.New("bank: journal backend must start empty")
	}
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bank: journal dir %s: %w", dir, err)
	}
	snapshotPath, walPath := journalPaths(dir)
	j := &Journal{
		backend:       backend,
		policy:        policy,
		dir:           dir,
		snapshotPath:  snapshotPath,
		walPath:       walPath,
		compactEvery:  compactEvery,
		kick:          make(chan struct{}, 1),
		compactReqs:   make(chan chan error),
		quit:          make(chan struct{}),
		committerDone: make(chan struct{}),
	}
	if reg := opts.Obs; reg != nil {
		j.mCommit = reg.Histogram("journal_commit_seconds",
			"Latency of one journaled mutation from apply to durable ack.",
			obs.Latency, obs.L("policy", string(policy)))
		j.mBatch = reg.Histogram("journal_batch_records",
			"Records coalesced per WAL commit batch.", obs.Sizes)
		j.mFsync = reg.Counter("journal_fsync_total", "WAL fsync calls.")
		j.mWALBytes = reg.Counter("journal_wal_bytes_total", "Bytes appended to the WAL.")
		j.mCompacts = reg.Counter("journal_compactions_total",
			"Compaction passes, successful or not (pair with journal_compact_seconds).")
		j.mCompactDur = reg.Histogram("journal_compact_seconds",
			"Duration of one compaction pass.", obs.Latency)
		reg.GaugeFunc("journal_poisoned",
			"1 once a failed WAL commit or truncation has stopped the journal (writes fail until restart), else 0.",
			func() float64 {
				j.mu.Lock()
				defer j.mu.Unlock()
				if j.poisoned {
					return 1
				}
				return 0
			})
	}
	if _, err := os.Stat(snapshotPath); err == nil {
		snap, err := readSnapshotFile(snapshotPath)
		if err != nil {
			return nil, err
		}
		if err := loadSnapshot(snap, backend); err != nil {
			return nil, err
		}
		j.epoch = snap.WalEpoch
	}
	// wal.Open also fsyncs the directory of a WAL it creates: without that
	// a fresh journal could come back with no wal.log at all — losing
	// acknowledged writes even under group, since no snapshot (whose
	// publish path fsyncs the directory) exists until the first compaction.
	if j.wal, err = wal.Open(walPath, policy, j.replayRecord); err != nil {
		return nil, fmt.Errorf("bank: replay wal: %w", err)
	}
	go j.committer()
	if j.dirty >= j.compactEvery {
		// A long replayed WAL is compacted in the background rather than
		// stalling the boot.
		j.kickCommitter()
	}
	return j, nil
}

// replayRecord applies one replayed WAL record to the backend and counts it
// toward the next compaction.
func (j *Journal) replayRecord(line []byte) error {
	var rec walRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return err
	}
	j.dirty++
	// A record from an older epoch is already folded into the snapshot
	// (crash between snapshot rename and WAL truncation): skip it rather
	// than re-apply it.
	if rec.Epoch < j.epoch {
		return nil
	}
	return j.apply(rec)
}

// apply replays one record against the backend. Replay is idempotent: a
// crash between compaction's snapshot rename and the WAL truncation leaves
// snapshot and WAL overlapping, so every WAL record may already be folded
// into the snapshot — redo errors (already exists / not found) mean exactly
// that and are skipped rather than failing the boot.
func (j *Journal) apply(rec walRecord) error {
	switch rec.Op {
	case opAddProblem:
		return ignoreRedo(j.backend.AddProblem(rec.Problem), ErrProblemExists)
	case opUpdateProblem:
		return ignoreRedo(j.backend.UpdateProblem(rec.Problem), ErrProblemNotFound)
	case opDeleteProblem:
		return ignoreRedo(j.backend.DeleteProblem(rec.ID), ErrProblemNotFound)
	case opAddExam:
		if err := j.backend.AddExam(rec.Exam); err != nil {
			if errors.Is(err, ErrExamExists) {
				return nil
			}
			// The record was valid when appended; a missing problem here
			// means an earlier tolerant snapshot load carried a dangling
			// reference forward. Mirror that tolerance.
			if errors.Is(err, ErrProblemNotFound) {
				return ignoreRedo(j.backend.putExamUnchecked(rec.Exam), ErrExamExists)
			}
			return err
		}
		return nil
	case opUpdateExam:
		// UpdateExam replay is naturally idempotent; a vanished exam means a
		// later deletion is already folded into the snapshot, and missing
		// problems mirror the add_exam tolerance for dangling references
		// carried forward by a tolerant snapshot load.
		if err := j.backend.UpdateExam(rec.Exam); err != nil &&
			!errors.Is(err, ErrExamNotFound) && !errors.Is(err, ErrProblemNotFound) {
			return err
		}
		return nil
	case opDeleteExam:
		return ignoreRedo(j.backend.DeleteExam(rec.ID), ErrExamNotFound)
	case opPutAdaptive:
		// Upsert: replay is naturally idempotent.
		return j.backend.PutAdaptiveSession(rec.Session)
	case opDeleteAdaptive:
		return ignoreRedo(j.backend.DeleteAdaptiveSession(rec.ID), ErrAdaptiveSessionNotFound)
	case opRollback:
		if _, err := j.backend.Rollback(rec.ID); err != nil {
			// A compaction snapshot earlier in this recovery dropped the
			// revision history the rollback popped live. The record carries
			// the restored state, so replay it as an update: the current
			// problem ends up exactly as it was live, which is the
			// invariant snapshots guarantee (history itself is folded by
			// compaction; see the type comment).
			if rec.Problem != nil {
				return ignoreRedo(j.backend.UpdateProblem(rec.Problem), ErrProblemNotFound)
			}
			return err
		}
		return nil
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
}

// ignoreRedo maps a redo error (the record's effect is already present in —
// or already absent from — the compacted snapshot) to success.
func ignoreRedo(err, redo error) error {
	if errors.Is(err, redo) {
		return nil
	}
	return err
}

// mutate journals one write whose record the caller can build up front: it
// encodes rec, then applies the write and commits the record (see commit).
// The record may point at the caller's value. Encoding happens before the
// write applies and outside the ordering lock, so a value that cannot be
// encoded fails its own write, leaves the backend unchanged and leaves the
// journal open.
func (j *Journal) mutate(ctx context.Context, rec walRecord, apply func() error) error {
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	return j.commit(ctx, rec.Op, func() ([]byte, error) { return line, apply() })
}

// encodeRecord encodes rec, whose epoch is zero, as the queue holds it.
func encodeRecord(rec walRecord) ([]byte, error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("bank: encode %s record: %w", rec.Op, err)
	}
	return line, nil
}

// commit applies one write to the backend and submits its record for group
// commit. apply runs under the ordering lock: it applies the write and
// returns the record encoded at epoch zero, or an error after which nothing
// is journaled. Apply + enqueue happen under that lock so WAL order always
// matches backend apply order and a compaction's scan takes every applied
// record with it; the WAL write and the fsync happen outside the lock,
// shared across writers. commit returns only once the record is durable
// under the journal's SyncPolicy (or the journal is poisoned). Every
// mutation goes through this one function, so the protocol (closed check,
// apply, enqueue, commit wait) cannot drift between operations.
//
// When ctx carries a trace span, the commit records a "wal.commit" child
// annotated with the WAL op, sync policy and the batch size the committer
// coalesced it into, plus retroactive enqueue-wait / batch-wait / fsync
// phase children rebuilt from the timestamps the committer stamped on the
// ack — the committer goroutine itself never touches the trace, so the
// single-writer WAL pipeline stays trace-free. Untraced calls take the
// exact pre-trace path: one nil check.
func (j *Journal) commit(ctx context.Context, op string, apply func() ([]byte, error)) error {
	span := trace.FromContext(ctx).Child("wal.commit")
	var start time.Time
	if j.mCommit != nil {
		start = time.Now()
	}
	j.mu.Lock()
	if j.closed || j.poisoned {
		j.mu.Unlock()
		span.SetError()
		span.End()
		return ErrJournalClosed
	}
	line, err := apply()
	if err != nil {
		j.mu.Unlock()
		span.SetError()
		span.End()
		return err
	}
	p := &pendingCommit{line: line, done: make(chan struct{})}
	if span.Valid() {
		p.enqueuedAt = time.Now()
	}
	j.queue = append(j.queue, p)
	j.mu.Unlock()

	j.kickCommitter()
	<-p.done
	if j.mCommit != nil && p.err == nil {
		j.mCommit.ObserveTraced(time.Since(start), span.TraceIDHex())
	}
	if span.Valid() {
		span.SetStr("wal.op", op)
		span.SetStr("wal.policy", string(j.policy))
		span.SetInt("wal.batch", int64(p.batchSize))
		if p.err != nil {
			span.SetError()
		} else if !p.batchStart.IsZero() {
			// Phase children, reconstructed from the committer's stamps:
			// enqueue-wait is submit → batch pickup, batch-wait is pickup →
			// this record's WAL write returned, fsync is that write →
			// durable (zero-length under none, where syncDone ==
			// writeDone).
			span.ChildAt("wal.enqueue-wait", p.enqueuedAt).EndAt(p.batchStart)
			span.ChildAt("wal.batch-wait", p.batchStart).EndAt(p.writeDone)
			span.ChildAt("wal.fsync", p.writeDone).EndAt(p.syncDone)
		}
	}
	span.End()
	return p.err
}

// kickCommitter wakes the committer without blocking; a pending kick
// already covers the new work.
func (j *Journal) kickCommitter() {
	select {
	case j.kick <- struct{}{}:
	default:
	}
}

// committer is the single goroutine that owns the WAL file. It drains the
// submit queue into batched commits, runs automatic and explicit
// compactions between batches, and exits when Close (or a test crash
// helper) closes quit — draining whatever is still queued first, so no
// waiter is left blocked.
func (j *Journal) committer() {
	defer close(j.committerDone)
	for {
		select {
		case <-j.kick:
			j.drainQueue()
			j.maybeCompact()
		case req := <-j.compactReqs:
			req <- j.compactCommitter()
		case <-j.quit:
			j.drainQueue()
			return
		}
	}
}

// drainQueue commits everything queued, batch by batch, until the queue is
// observed empty.
func (j *Journal) drainQueue() {
	for {
		// Let writers that are already runnable reach their enqueue before
		// the swap: on a loaded (or single-core) scheduler the committer
		// often wakes after the first enqueue of a stampede, and committing
		// a one-record batch per fsync squanders exactly the coalescing
		// this pipeline exists for. One yield turns those stampedes into
		// one batch; an idle journal pays a few hundred nanoseconds.
		runtime.Gosched()
		j.mu.Lock()
		batch, epoch, poisoned := j.queue, j.epoch, j.poisoned
		j.queue = nil
		j.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		if poisoned {
			failBatch(batch, ErrJournalClosed)
			continue
		}
		_ = j.commitBatch(batch, epoch) // a failure is returned to the batch's writers
	}
}

// commitBatch writes one batch to the WAL under epoch and acknowledges its
// waiters once the batch is durable (see wal.File.Commit for what each
// policy writes and syncs); the batch is acknowledged whole or failed
// whole. A write or sync failure poisons the journal — the backend now
// holds mutations the WAL does not, so rather than let memory and disk
// diverge further, every waiter in the batch errors and every subsequent
// mutation errors until the process restarts and replays the WAL (which
// drops the unjournaled mutations).
func (j *Journal) commitBatch(batch []*pendingCommit, epoch int64) error {
	j.mBatch.ObserveValue(int64(len(batch)))
	batchStart := time.Now()
	buf, ends := j.buf[:0], j.ends[:0]
	for _, p := range batch {
		buf = appendRecord(buf, p.line, epoch)
		ends = append(ends, len(buf))
	}
	j.buf, j.ends = buf, ends
	err := j.wal.Commit(buf, ends, func(i int, written, synced time.Time) {
		p := batch[i]
		if !p.enqueuedAt.IsZero() { // phase stamps for traced waiters only
			p.batchStart, p.writeDone, p.syncDone = batchStart, written, synced
			p.batchSize = int32(len(batch))
		}
		close(p.done)
	})
	if err != nil {
		j.markPoisoned()
		err = fmt.Errorf("%w: %w", ErrJournalClosed, err)
		failBatch(batch, err)
		return err
	}
	j.mWALBytes.Add(int64(len(buf)))
	j.dirty += len(batch)
	if j.policy == wal.SyncGroup {
		j.mFsync.Inc()
	}
	return nil
}

// appendRecord appends to buf the WAL line of a record that encodeRecord
// encoded at epoch zero, as written under epoch: exactly json.Marshal's
// encoding of the record with that epoch, plus the newline. Epoch is
// walRecord's last field and is omitted at zero, so that encoding is line
// with `,"epoch":N` before its closing brace.
func appendRecord(buf, line []byte, epoch int64) []byte {
	if epoch == 0 {
		buf = append(buf, line...)
	} else {
		buf = append(buf, line[:len(line)-1]...)
		buf = append(buf, `,"epoch":`...)
		buf = strconv.AppendInt(buf, epoch, 10)
		buf = append(buf, '}')
	}
	return append(buf, '\n')
}

// failBatch wakes waiters with an error without writing anything.
func failBatch(batch []*pendingCommit, err error) {
	for _, p := range batch {
		p.err = err
		close(p.done)
	}
}

// maybeCompact runs an automatic compaction once CompactEvery mutations
// have committed since the last one. Compaction is maintenance, not part
// of any mutation: the changes are applied and durably journaled, so a
// failed snapshot must not be reported as a failed write. Defer the retry
// a full window so a persistent snapshot error (disk full) doesn't pay
// O(bank) on every batch; the failure stays visible through CompactError
// until a compaction succeeds, and explicit Compact/Close surface it
// directly.
func (j *Journal) maybeCompact() {
	j.mu.Lock()
	skip := j.poisoned || j.dirty < j.compactEvery
	j.mu.Unlock()
	if skip {
		return
	}
	if err := j.compactCommitter(); err != nil {
		j.dirty = 0
		j.mu.Lock()
		j.compactErr = err
		j.mu.Unlock()
	}
}

// CompactError reports the most recent automatic-compaction failure, or nil
// if the last compaction succeeded. While non-nil the WAL keeps growing past
// CompactEvery; operators should surface this (examserver logs it at
// shutdown).
func (j *Journal) CompactError() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactErr
}

// Compact folds the WAL into a fresh snapshot and truncates it. Safe to call
// at any time; the work runs on the committer goroutine and the snapshot
// holds every mutation applied before its scan. Automatic compaction
// happens every CompactEvery mutations.
func (j *Journal) Compact() error {
	j.mu.Lock()
	if j.closed || j.poisoned {
		j.mu.Unlock()
		return ErrJournalClosed
	}
	j.mu.Unlock()
	req := make(chan error, 1)
	select {
	case j.compactReqs <- req:
		return <-req
	case <-j.committerDone:
		return ErrJournalClosed
	}
}

// compactCommitter writes the snapshot, syncs it, and empties the WAL. It
// runs only on the committer goroutine (or after the committer has exited,
// in Close), which owns the WAL handle — so the only records written
// between the backend scan and the truncation are the ones the scan took,
// and every truncated record is provably folded into the published
// snapshot. A snapshot failure leaves the WAL fully intact (retryable); a
// failure committing the taken records or truncating the WAL poisons the
// journal, since the append handle can no longer be trusted.
func (j *Journal) compactCommitter() error {
	if j.mCompactDur != nil {
		start := time.Now()
		defer func() {
			j.mCompacts.Inc()
			j.mCompactDur.Observe(time.Since(start))
		}()
	}
	// The scan holds the ordering lock: writers are quiesced while it
	// collects pointers to the stored values (no copy, no file I/O), which
	// makes the snapshot a consistent cut. Stored values are never
	// modified, so encoding them after the lock is released writes what the
	// scan saw. The cut may include applied mutations still on the queue:
	// the scan takes them with it and the epoch advances, so the queue keeps
	// only later mutations, stamped with the new epoch to replay on top of
	// the snapshot. Advancing the in-memory epoch even though a write below
	// may still fail is harmless: replay filters on
	// rec.Epoch >= snapshot.WalEpoch, and the on-disk snapshot's epoch only
	// ever lags the in-memory one.
	j.mu.Lock()
	if j.poisoned {
		j.mu.Unlock()
		return ErrJournalClosed
	}
	snap, err := buildSnapshot(j.backend)
	if err != nil {
		j.mu.Unlock()
		return err
	}
	taken, epoch := j.queue, j.epoch
	j.queue = nil
	j.epoch++
	snap.WalEpoch = j.epoch
	j.mu.Unlock()

	// The snapshot is published only once the taken records are durable
	// under the old epoch, so it never holds a mutation whose caller was
	// told it failed.
	if len(taken) != 0 {
		if err := j.commitBatch(taken, epoch); err != nil {
			return err
		}
	}
	if _, err := writeSnapshotFile(snap, j.snapshotPath); err != nil {
		return err
	}
	if err := j.wal.Truncate(); err != nil {
		j.markPoisoned()
		return fmt.Errorf("%w: %w", ErrJournalClosed, err)
	}
	j.dirty = 0
	j.mu.Lock()
	j.compactErr = nil
	j.mu.Unlock()
	return nil
}

// markPoisoned flags the journal unusable; the WAL stays open until Close.
func (j *Journal) markPoisoned() {
	j.mu.Lock()
	j.poisoned = true
	j.mu.Unlock()
}

// stopCommitter asks the committer to drain and exit, then waits for it.
// Idempotent.
func (j *Journal) stopCommitter() {
	j.stopOnce.Do(func() { close(j.quit) })
	<-j.committerDone
}

// Close drains pending commits, compacts, and releases the WAL file. The
// journal must not be used afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	wasClosed := j.closed
	j.closed = true
	j.mu.Unlock()
	j.stopCommitter()
	if wasClosed {
		return nil
	}
	j.mu.Lock()
	poisoned := j.poisoned
	j.mu.Unlock()
	if poisoned {
		_ = j.wal.Close() // the poisoning error was returned to its writers
		return nil
	}
	err := j.compactCommitter()
	if cerr := j.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Sync reports the journal's sync policy.
func (j *Journal) Sync() wal.SyncPolicy { return j.policy }

// Mutations: encode, then backend apply + commit-queue submit under the
// ordering lock, then durable acknowledgment via the committer (see commit).

// AddProblem validates, stores and journals the problem.
func (j *Journal) AddProblem(p *item.Problem) error {
	return j.AddProblemCtx(context.Background(), p)
}

// AddProblemCtx is AddProblem carrying a request context so a traced
// request's span tree gains the wal.commit span and its phase children.
func (j *Journal) AddProblemCtx(ctx context.Context, p *item.Problem) error {
	return j.mutate(ctx, walRecord{Op: opAddProblem, Problem: p},
		func() error { return j.backend.AddProblem(p) })
}

// UpdateProblem replaces the stored problem and journals the change.
func (j *Journal) UpdateProblem(p *item.Problem) error {
	return j.mutate(context.Background(), walRecord{Op: opUpdateProblem, Problem: p},
		func() error { return j.backend.UpdateProblem(p) })
}

// DeleteProblem removes the problem and journals the deletion.
func (j *Journal) DeleteProblem(id string) error {
	return j.mutate(context.Background(), walRecord{Op: opDeleteProblem, ID: id},
		func() error { return j.backend.DeleteProblem(id) })
}

// AddExam stores the exam and journals it.
func (j *Journal) AddExam(e *ExamRecord) error {
	return j.mutate(context.Background(), walRecord{Op: opAddExam, Exam: e},
		func() error { return j.backend.AddExam(e) })
}

// putExamUnchecked journals an exam inserted without reference validation
// (snapshot loading only; replay mirrors the tolerance in apply).
func (j *Journal) putExamUnchecked(e *ExamRecord) error {
	return j.mutate(context.Background(), walRecord{Op: opAddExam, Exam: e},
		func() error { return j.backend.putExamUnchecked(e) })
}

// UpdateExam replaces the stored exam record and journals the change.
func (j *Journal) UpdateExam(e *ExamRecord) error {
	return j.mutate(context.Background(), walRecord{Op: opUpdateExam, Exam: e},
		func() error { return j.backend.UpdateExam(e) })
}

// DeleteExam removes the exam and journals the deletion.
func (j *Journal) DeleteExam(id string) error {
	return j.mutate(context.Background(), walRecord{Op: opDeleteExam, ID: id},
		func() error { return j.backend.DeleteExam(id) })
}

// PutAdaptiveSession stores the adaptive-session record and journals it.
func (j *Journal) PutAdaptiveSession(rec *AdaptiveSessionRecord) error {
	return j.PutAdaptiveSessionCtx(context.Background(), rec)
}

// PutAdaptiveSessionCtx is PutAdaptiveSession carrying a request context;
// the CAT engine's persist step uses it (via an interface probe) so the
// WAL commit parents under the respond/finish span.
func (j *Journal) PutAdaptiveSessionCtx(ctx context.Context, rec *AdaptiveSessionRecord) error {
	return j.mutate(ctx, walRecord{Op: opPutAdaptive, Session: rec},
		func() error { return j.backend.PutAdaptiveSession(rec) })
}

// DeleteAdaptiveSession removes the record and journals the deletion.
func (j *Journal) DeleteAdaptiveSession(id string) error {
	return j.mutate(context.Background(), walRecord{Op: opDeleteAdaptive, ID: id},
		func() error { return j.backend.DeleteAdaptiveSession(id) })
}

// Rollback restores the previous problem revision and journals the
// operation. The record carries the restored state so replay stays correct
// even when an intervening compaction folded the history away. Only the
// backend knows that state, so the record is encoded under the ordering
// lock: every backend write holds it, so the newest revision History lists
// is the one the backend's Rollback then restores.
func (j *Journal) Rollback(id string) (*item.Problem, error) {
	var p *item.Problem
	err := j.commit(context.Background(), opRollback, func() ([]byte, error) {
		rec := walRecord{Op: opRollback, ID: id}
		if revs := j.backend.History(id); len(revs) != 0 {
			rec.Problem = revs[len(revs)-1].Problem
		}
		line, err := encodeRecord(rec)
		if err != nil {
			return nil, err
		}
		p, err = j.backend.Rollback(id)
		return line, err
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Reads delegate to the backend.

// Problem returns the stored problem.
func (j *Journal) Problem(id string) (*item.Problem, error) { return j.backend.Problem(id) }

// ProblemCount returns the number of stored problems.
func (j *Journal) ProblemCount() int { return j.backend.ProblemCount() }

// ProblemIDs returns all problem IDs, sorted.
func (j *Journal) ProblemIDs() []string { return j.backend.ProblemIDs() }

// Problems returns the identified problems.
func (j *Journal) Problems(ids []string) ([]*item.Problem, error) { return j.backend.Problems(ids) }

// Exam returns the stored exam record.
func (j *Journal) Exam(id string) (*ExamRecord, error) { return j.backend.Exam(id) }

// ExamIDs returns all exam IDs, sorted.
func (j *Journal) ExamIDs() []string { return j.backend.ExamIDs() }

// AdaptiveSession returns the stored adaptive-session record.
func (j *Journal) AdaptiveSession(id string) (*AdaptiveSessionRecord, error) {
	return j.backend.AdaptiveSession(id)
}

// AdaptiveSessionIDs returns all adaptive-session IDs, sorted.
func (j *Journal) AdaptiveSessionIDs() []string { return j.backend.AdaptiveSessionIDs() }

// Search returns the matching problems ordered by ID.
func (j *Journal) Search(q Query) []*item.Problem { return j.backend.Search(q) }

// Subjects returns the distinct subjects present in the bank, sorted.
func (j *Journal) Subjects() []string { return j.backend.Subjects() }

// CountByStyle tallies stored problems per style.
func (j *Journal) CountByStyle() map[item.Style]int { return j.backend.CountByStyle() }

// History returns a problem's superseded versions.
func (j *Journal) History(id string) []Revision { return j.backend.History(id) }

// Version returns the problem's current version number.
func (j *Journal) Version(id string) int { return j.backend.Version(id) }

// Generation reports the backend's problem and exam write generation.
func (j *Journal) Generation() uint64 { return j.backend.Generation() }

// Save exports the full contents as one JSON bank file at path (independent
// of the journal's own snapshot).
func (j *Journal) Save(path string) error { return j.backend.Save(path) }
