package events

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"mineassess/internal/wal"
)

// Log is the optional durable side of the bus: an append-only log of every
// published event, written off the publish path by a dedicated writer
// goroutine through a wal.File, as the bank journal writes its WAL. It
// shares the journal's durability: the wal.SyncPolicy vocabulary (always /
// group / none), one write plus one fsync per batch of concurrent appends,
// and torn-tail truncation on open, so an event acknowledged into the log
// under always/group survives power loss exactly like a journaled bank
// mutation. Records are JSON lines, encoded once per event and shared with
// the SSE fan-out.
//
// The log exists for replay: a subscriber reconnecting with a Last-Event-ID
// older than the in-memory replay ring reads the missed events back from
// here, including across process restarts (Open restores the sequence
// counters so the bus keeps numbering where it left off).
//
// With LogOptions.MaxBytes set the log is bounded: when the active segment
// exceeds the limit it is rotated to a single ".1" predecessor segment
// (replacing the previous one), so retention is between one and two segments
// of history. Resume within retention still works — ReadSince reads the
// predecessor then the active segment — and a resume that falls off the
// retained tail is announced by the bus as a stream.gap, never silently
// skipped.
type Log struct {
	path string
	max  int64 // rotation threshold; 0 = unbounded

	// Restored on Open; read by NewBus to seed the counters.
	examSeqs  map[string]uint64
	globalSeq uint64

	ch      chan Event
	done    chan struct{}
	dropped atomic.Int64

	// Owned by the writer goroutine (and Open/Close while none runs). It
	// latches the first failure; the log stops appending after it.
	file *wal.File
}

// logQueueCap bounds the publish-to-writer handoff. A full queue means the
// disk cannot keep up with the emitters; rather than block them (the bus
// contract), further events are counted in Dropped and lost from the
// durable log only — live subscribers still receive them.
const logQueueCap = 8192

// LogOptions configures OpenLog.
type LogOptions struct {
	// Sync is the fsync policy; empty means wal.SyncGroup.
	Sync wal.SyncPolicy
	// MaxBytes bounds the active segment; past it the segment rotates to a
	// ".1" predecessor (replacing the previous one). 0 means unbounded.
	MaxBytes int64
}

// OpenLog opens (or creates) the event log in dir. Existing events —
// predecessor segment first, then the active one — are scanned to restore
// the sequence counters; a torn final record (crash during append) on the
// active segment is truncated away so later appends cannot corrupt the file.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	policy, err := wal.ParseSyncPolicy(string(opts.Sync))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("events: log dir %s: %w", dir, err)
	}
	l := &Log{
		path:     filepath.Join(dir, "events.log"),
		max:      opts.MaxBytes,
		examSeqs: make(map[string]uint64),
		ch:       make(chan Event, logQueueCap),
		done:     make(chan struct{}),
	}
	// The predecessor segment is immutable history: scan it for counters
	// only (a torn tail there, while unexpected, just ends its scan).
	if _, err := wal.Scan(l.prevPath(), l.restore); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	if l.file, err = wal.Open(l.path, policy, l.restore); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	go l.writer()
	return l, nil
}

func (l *Log) prevPath() string { return l.path + ".1" }

// restore advances the sequence counters past one logged event.
func (l *Log) restore(line []byte) error {
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		return err
	}
	if e.Seq > l.examSeqs[e.ExamID] {
		l.examSeqs[e.ExamID] = e.Seq
	}
	if e.GlobalSeq > l.globalSeq {
		l.globalSeq = e.GlobalSeq
	}
	return nil
}

// enqueue hands an event to the writer without blocking. Called by the bus
// under its lock, so file order always matches sequence order.
func (l *Log) enqueue(e Event) {
	select {
	case l.ch <- e:
	default:
		l.dropped.Add(1)
	}
}

// Dropped reports how many events the durable log discarded because the
// writer could not keep up (live delivery was unaffected).
func (l *Log) Dropped() int64 { return l.dropped.Load() }

// Err reports the first append failure, if any; the log stops writing after
// one (the live bus keeps running). It stays nil across a clean Close.
func (l *Log) Err() error { return l.file.Err() }

// writer is the single goroutine owning the file. It coalesces everything
// queued since its last pass into one write (plus one fsync under the group
// policy), mirroring the bank journal's group commit.
func (l *Log) writer() {
	defer close(l.done)
	for e := range l.ch {
		batch := []Event{e}
	drain:
		for {
			select {
			case more, ok := <-l.ch:
				if !ok {
					l.writeBatch(batch)
					return
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		l.writeBatch(batch)
	}
}

// writeBatch encodes one batch and commits it under the log's policy, then
// rotates the segment once it has outgrown MaxBytes. After the file's first
// failure every event is dropped.
func (l *Log) writeBatch(batch []Event) {
	if l.file.Err() != nil {
		l.dropped.Add(int64(len(batch)))
		return
	}
	var buf []byte
	ends := make([]int, 0, len(batch))
	for i := range batch {
		var err error
		// Shares the publish-time encoding with the SSE fan-out.
		buf, err = batch[i].AppendJSON(buf)
		if err != nil {
			l.file.Fail(fmt.Errorf("events: marshal event: %w", err))
			return
		}
		buf = append(buf, '\n')
		ends = append(ends, len(buf))
	}
	if l.file.Commit(buf, ends, nil) == nil && l.max > 0 && l.file.Size() >= l.max {
		_ = l.file.Rotate() // a failure is latched and reported by Err
	}
}

// ReadSince returns logged events newer than afterSeq, oldest first —
// filtered to one exam's Seq when examID is set, by GlobalSeq otherwise.
// It reads private handles (predecessor segment, then the active one), so it
// is safe concurrently with appends; a torn or corrupt record ends the read
// of its segment.
// Events still queued for the writer are not visible here — the bus's replay
// ring covers them, and when the ring is disabled or too small, Subscribe
// announces the shortfall as a gap. Likewise events rotated out of retention
// are gone; a resume from before the retained tail starts with a gap marker.
func (l *Log) ReadSince(examID string, afterSeq uint64) []Event {
	var out []Event
	for _, path := range []string{l.prevPath(), l.path} {
		_, _ = wal.Scan(path, func(line []byte) error {
			var e Event
			if err := json.Unmarshal(line, &e); err != nil {
				return err
			}
			if examID != "" {
				if e.ExamID == examID && e.Seq > afterSeq {
					out = append(out, e)
				}
			} else if e.GlobalSeq > afterSeq {
				out = append(out, e)
			}
			return nil
		})
	}
	return out
}

// Close flushes queued events and releases the file. It returns the first
// append failure, if any. The caller must guarantee no concurrent enqueue
// (the bus closes itself first).
func (l *Log) Close() error {
	close(l.ch)
	<-l.done
	return l.file.Close()
}
