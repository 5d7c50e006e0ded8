// Package wal is the append-only log file under both durable logs, the bank
// journal's write-ahead log and the event bus's event log. It owns every
// durability decision the two make: the fsync policy, the replay scan and
// torn-tail cut on open, the directory fsync that makes a new file survive
// power loss, how a batch is written and synced, emptying and retiring the
// file, and latching the first I/O failure.
//
// Every record is one JSON object on one line. Each user keeps its own
// goroutine, record schema and reaction to a failure. A File belongs to one
// goroutine at a time; only Err and Fail are safe to call concurrently.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// SyncPolicy selects when appended records are forced to stable storage. It
// trades write latency against what survives a power failure.
type SyncPolicy string

// Sync policies.
const (
	// SyncAlways fsyncs every record individually before acknowledging it.
	// No acknowledged record is lost on power failure. Slowest: one fsync
	// per record, with no coalescing.
	SyncAlways SyncPolicy = "always"
	// SyncGroup (the default) writes a batch of records at once plus one
	// fsync, and acknowledges the whole batch only after that fsync
	// returns. Same power-failure guarantee as SyncAlways for acknowledged
	// records — the fsync cost is amortized over the batch instead of paid
	// per record.
	SyncGroup SyncPolicy = "group"
	// SyncNone appends through the OS page cache and never fsyncs.
	// Process-crash-safe only: a power failure can lose recently
	// acknowledged records.
	SyncNone SyncPolicy = "none"
)

// ParseSyncPolicy resolves a -fsync style flag value; empty means SyncGroup.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case "":
		return SyncGroup, nil
	case SyncAlways, SyncGroup, SyncNone:
		return SyncPolicy(s), nil
	default:
		return "", fmt.Errorf("wal: unknown sync policy %q (always, group or none)", s)
	}
}

// SyncDir fsyncs a directory so freshly created or renamed entries survive
// power loss — a file fsync persists the file's bytes, not the dentry that
// makes it reachable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("wal: close dir %s: %w", dir, err)
	}
	return nil
}

// binaryMagic is the first byte of a record frame written by the binary
// record format earlier builds offered.
const binaryMagic = 0xB1

// Scan calls visit with every complete record in the log at path, oldest
// first: one JSON line, newline included. A newline-free final fragment
// that begins with '{' is a torn record (a write cut short by a crash) and
// ends the scan without error. It returns the byte offset just past the
// last complete record, or -1 when path does not exist. A record that does
// not begin with '{' is corruption: it, or an error from visit, stops the
// scan and is returned.
func Scan(path string, visit func(line []byte) error) (valid int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return -1, nil
	}
	if err != nil {
		return -1, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for n := 1; ; n++ {
		line, err := r.ReadBytes('\n')
		if err != nil && !errors.Is(err, io.EOF) {
			return valid, fmt.Errorf("wal: read %s: %w", path, err)
		}
		if len(line) == 0 {
			return valid, nil
		}
		switch {
		case line[0] == binaryMagic:
			err = errors.New("a frame of the removed binary record format (first byte 0xb1); only JSON lines can be replayed")
		case line[0] != '{':
			err = fmt.Errorf("corrupt: begins with 0x%02x, not '{'", line[0])
		case err != nil:
			return valid, nil // a torn final record
		default:
			err = visit(line)
		}
		if err != nil {
			return valid, fmt.Errorf("wal: %s record %d at byte %d: %w", path, n, valid, err)
		}
		valid += int64(len(line))
	}
}

// Sink is where a File's bytes go: the *os.File it opened, unless a test
// wrapped it (see WrapSink) to inject failures or simulate power cuts.
type Sink interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// File is one append-only log file, written under a SyncPolicy.
type File struct {
	path   string
	policy SyncPolicy
	sink   Sink
	size   int64

	mu  sync.Mutex // guards err, which Err reads from any goroutine
	err error
}

// Open scans the log at path (see Scan), cuts off a torn final record so
// the next append cannot fuse onto it, opens the file for appending
// (creating it if absent) and fsyncs its directory so a new file survives
// power loss. If the scan fails, Open returns its error and leaves the file
// as it was.
func Open(path string, policy SyncPolicy, visit func(line []byte) error) (*File, error) {
	valid, err := Scan(path, visit)
	if err != nil {
		return nil, err
	}
	if valid >= 0 {
		if err := os.Truncate(path, valid); err != nil {
			return nil, fmt.Errorf("wal: cut torn tail: %w", err)
		}
	}
	sink, err := openAppend(path)
	if err != nil {
		return nil, err
	}
	return &File{path: path, policy: policy, sink: sink, size: max(valid, 0)}, nil
}

// openAppend opens path for appending and makes its directory entry
// durable.
func openAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Commit appends a batch of encoded records, buf, where record i ends at
// byte ends[i], and calls ack(i, written, synced) for each record, in
// order, once it is durable under the policy: written is when its write
// returned, synced when it became durable (equal to written under
// SyncNone). Under SyncGroup the batch is one write plus one fsync; under
// SyncNone one write; under SyncAlways one write and one fsync per record,
// each record acknowledged as it becomes durable. ack may be nil.
//
// The first write or fsync failure is latched: it is returned, records not
// yet acknowledged are not, and every later Commit returns it too.
func (f *File) Commit(buf []byte, ends []int, ack func(i int, written, synced time.Time)) error {
	if err := f.Err(); err != nil {
		return err
	}
	from, acked := 0, 0
	for i, end := range ends {
		if f.policy != SyncAlways && i+1 < len(ends) {
			continue // group and none write the batch as one chunk
		}
		written, synced, err := f.flush(buf[from:end])
		if err != nil {
			return err
		}
		for ; ack != nil && acked <= i; acked++ {
			ack(acked, written, synced)
		}
		from = end
	}
	return nil
}

// flush writes one chunk and, unless the policy is SyncNone, fsyncs it.
func (f *File) flush(chunk []byte) (written, synced time.Time, err error) {
	n, err := f.sink.Write(chunk)
	f.size += int64(n)
	if err != nil {
		return written, synced, f.Fail(fmt.Errorf("wal: append %s: %w", f.path, err))
	}
	written = time.Now()
	if f.policy == SyncNone {
		return written, written, nil
	}
	if err := f.sink.Sync(); err != nil {
		return written, synced, f.Fail(fmt.Errorf("wal: sync %s: %w", f.path, err))
	}
	return written, time.Now(), nil
}

// Truncate empties the file; later appends start at offset 0.
func (f *File) Truncate() error {
	if err := f.Err(); err != nil {
		return err
	}
	if err := f.sink.Truncate(0); err != nil {
		return f.Fail(fmt.Errorf("wal: truncate %s: %w", f.path, err))
	}
	f.size = 0
	return nil
}

// Rotate retires the file to path+".1", replacing the previous
// predecessor, and continues on a fresh empty file.
func (f *File) Rotate() error {
	if err := f.Err(); err != nil {
		return err
	}
	// Under always and group every Commit already synced; make the retired
	// file's bytes durable under none too before the rename publishes it.
	if f.policy == SyncNone {
		if err := f.sink.Sync(); err != nil {
			return f.Fail(fmt.Errorf("wal: sync before rotate: %w", err))
		}
	}
	if err := f.sink.Close(); err != nil {
		return f.Fail(fmt.Errorf("wal: close before rotate: %w", err))
	}
	if err := os.Rename(f.path, f.path+".1"); err != nil {
		return f.Fail(fmt.Errorf("wal: rotate %s: %w", f.path, err))
	}
	sink, err := openAppend(f.path)
	if err != nil {
		return f.Fail(err)
	}
	f.sink, f.size = sink, 0
	return nil
}

// Size reports the bytes in the file.
func (f *File) Size() int64 { return f.size }

// Err reports the latched failure, or nil.
func (f *File) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Fail latches err as the file's failure unless one is already latched,
// and returns the latched failure. A user latches its own unrecoverable
// error (a record it cannot encode) to stop appending the way an I/O
// failure does.
func (f *File) Fail(err error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
	return f.err
}

// Close releases the file and returns the latched failure: the first I/O
// failure, else a failure to close, else nil.
func (f *File) Close() error {
	if err := f.sink.Close(); err != nil {
		return f.Fail(fmt.Errorf("wal: close %s: %w", f.path, err))
	}
	return f.Err()
}

// WrapSink replaces the current sink with wrap(sink). It exists for tests
// that inject write failures or simulate power cuts; a Rotate opens an
// unwrapped sink.
func (f *File) WrapSink(wrap func(Sink) Sink) { f.sink = wrap(f.sink) }
