package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var policies = []SyncPolicy{SyncAlways, SyncGroup, SyncNone}

var errInjected = errors.New("injected write failure")

// record encodes record n as a JSON line.
func record(n int) []byte {
	return []byte(fmt.Sprintf("{\"n\":%d}\n", n))
}

// batch encodes records from..to-1 into one Commit buffer.
func batch(from, to int) (buf []byte, ends []int) {
	for n := from; n < to; n++ {
		buf = append(buf, record(n)...)
		ends = append(ends, len(buf))
	}
	return buf, ends
}

// scanAll returns the record numbers Scan visits at path, in order.
func scanAll(t *testing.T, path string) []int {
	t.Helper()
	var got []int
	if _, err := Scan(path, collect(&got)); err != nil {
		t.Fatalf("scan %s: %v", path, err)
	}
	return got
}

// collect is a visit func appending each record's number to got.
func collect(got *[]int) func([]byte) error {
	return func(line []byte) error {
		var rec struct{ N int }
		err := json.Unmarshal(line, &rec)
		*got = append(*got, rec.N)
		return err
	}
}

func wantRecords(t *testing.T, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("records = %v, want 0..%d", got, n-1)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("records = %v, want 0..%d in order", got, n-1)
		}
	}
}

func open(t *testing.T, path string, policy SyncPolicy) *File {
	t.Helper()
	f, err := Open(path, policy, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// powerCut wraps a File's sink: Write lands in the "page cache" (the real
// file), Sync makes everything written so far durable. Write number tearAt
// stores half its bytes and fails, as a crash mid-write would; every write
// after it fails too.
type powerCut struct {
	Sink
	writes, tearAt  int
	written, synced int64
}

func (p *powerCut) Write(b []byte) (int, error) {
	p.writes++
	if p.tearAt > 0 && p.writes >= p.tearAt {
		if p.writes > p.tearAt {
			return 0, errInjected
		}
		b = b[:len(b)/2]
	}
	n, err := p.Sink.Write(b)
	p.written += int64(n)
	if err == nil && p.tearAt > 0 && p.writes == p.tearAt {
		err = errInjected
	}
	return n, err
}

func (p *powerCut) Sync() error {
	if err := p.Sink.Sync(); err != nil {
		return err
	}
	p.synced = p.written
	return nil
}

// TestPowerCutRecoversAckedRecords commits two clean batches of four, tears
// a write in the third, then cuts power: everything not fsynced is lost.
// Under always and group Scan must recover exactly the acknowledged records
// (always acknowledges the third batch's records written before the tear);
// under none, where nothing is fsynced and the cut may land mid-record, a
// clean prefix.
func TestPowerCutRecoversAckedRecords(t *testing.T) {
	for _, policy := range policies {
		t.Run(string(policy), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			f := open(t, path, policy)
			// The tear hits record 10: the third batch's only write under
			// group and none, its third record's write under always.
			pc := &powerCut{tearAt: 3}
			if policy == SyncAlways {
				pc.tearAt = 11
			}
			f.WrapSink(func(s Sink) Sink { pc.Sink = s; return pc })
			acked := 0
			ack := func(i int, written, synced time.Time) {
				acked++
				if synced.Before(written) {
					t.Errorf("record %d synced before written", i)
				}
			}
			for b := 0; b < 3; b++ {
				buf, ends := batch(4*b, 4*b+4)
				err := f.Commit(buf, ends, ack)
				if (err != nil) != (b == 2) {
					t.Fatalf("batch %d: Commit = %v", b, err)
				}
			}
			_ = f.Close()
			want := 8
			if policy == SyncAlways {
				want = 10
			}
			if acked != want {
				t.Fatalf("acked %d records, want %d", acked, want)
			}
			cut := pc.synced
			if policy == SyncNone {
				cut = pc.written / 2
			}
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
			got := scanAll(t, path)
			if policy == SyncNone {
				wantRecords(t, got, len(got))
				return
			}
			wantRecords(t, got, acked)
		})
	}
}

// TestFailedWriteLatches: the first failed write is returned by that Commit
// and every later one, without touching the sink again, and Err and Close
// report it.
func TestFailedWriteLatches(t *testing.T) {
	for _, policy := range policies {
		t.Run(string(policy), func(t *testing.T) {
			f := open(t, filepath.Join(t.TempDir(), "wal.log"), policy)
			pc := &powerCut{tearAt: 1}
			f.WrapSink(func(s Sink) Sink { pc.Sink = s; return pc })
			buf, ends := batch(0, 3)
			first := f.Commit(buf, ends, nil)
			if !errors.Is(first, errInjected) {
				t.Fatalf("Commit over a failing sink = %v", first)
			}
			for i := 0; i < 3; i++ {
				if err := f.Commit(buf, ends, nil); err != first {
					t.Fatalf("Commit after failure = %v, want the latched %v", err, first)
				}
			}
			if pc.writes != 1 {
				t.Errorf("sink saw %d writes, want 1 (later commits must not write)", pc.writes)
			}
			if err := f.Rotate(); err != first {
				t.Errorf("Rotate after failure = %v", err)
			}
			if f.Err() != first {
				t.Errorf("Err() = %v, want %v", f.Err(), first)
			}
			if err := f.Close(); err != first {
				t.Errorf("Close() = %v, want %v", err, first)
			}
		})
	}
}

// TestTornTailCutOnOpen: a record torn at the end of the file is cut on
// Open, and the next append lands right after the last complete record.
func TestTornTailCutOnOpen(t *testing.T) {
	for _, policy := range policies {
		t.Run(string(policy), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			f := open(t, path, policy)
			buf, ends := batch(0, 3)
			if err := f.Commit(buf, ends, nil); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			torn := record(3)
			if err := os.WriteFile(path, append(buf, torn[:len(torn)-3]...), 0o644); err != nil {
				t.Fatal(err)
			}
			var got []int
			f, err := Open(path, policy, collect(&got))
			if err != nil {
				t.Fatalf("Open over a torn tail: %v", err)
			}
			wantRecords(t, got, 3)
			if f.Size() != int64(len(buf)) {
				t.Errorf("Size() = %d after the cut, want %d", f.Size(), len(buf))
			}
			next, nextEnds := batch(3, 4)
			if err := f.Commit(next, nextEnds, nil); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			wantRecords(t, scanAll(t, path), 4)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(len(buf)+len(next)) {
				t.Errorf("file size = %d, want %d", st.Size(), len(buf)+len(next))
			}
		})
	}
}

// TestRotateKeepsOnePredecessor: each Rotate retires the file to ".1",
// replacing the previous predecessor, and continues on an empty file.
func TestRotateKeepsOnePredecessor(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.log")
	f := open(t, path, SyncNone)
	for n := 0; n < 3; n++ {
		if n > 0 {
			if err := f.Rotate(); err != nil {
				t.Fatal(err)
			}
			if f.Size() != 0 {
				t.Fatalf("Size() = %d after Rotate", f.Size())
			}
		}
		buf, ends := batch(n, n+1)
		if err := f.Commit(buf, ends, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, path+".1"); len(got) != 1 || got[0] != 1 {
		t.Errorf("predecessor holds %v, want [1]", got)
	}
	if got := scanAll(t, path); len(got) != 1 || got[0] != 2 {
		t.Errorf("active file holds %v, want [2]", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Errorf("directory holds %v (%v), want the file and one predecessor", entries, err)
	}
}

// TestTruncateEmptiesFile: after Truncate the file is empty and appends
// start again at offset 0.
func TestTruncateEmptiesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	f := open(t, path, SyncGroup)
	buf, ends := batch(0, 2)
	if err := f.Commit(buf, ends, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 0 || f.Size() != 0 {
		t.Fatalf("after Truncate: stat %v (%v), Size() %d; want empty", st, err, f.Size())
	}
	buf, ends = batch(0, 1)
	if err := f.Commit(buf, ends, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, scanAll(t, path), 1)
}

// TestOpenRefusesCorruptRecord: a complete record that is not a JSON line,
// or that visit rejects, fails Open before anything is cut, and the file is
// left byte-identical. A frame of the removed binary format is reported as
// such, mid-log or at the end where a torn JSON line would be cut.
func TestOpenRefusesCorruptRecord(t *testing.T) {
	frame := []byte{binaryMagic, 1, 2, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'}
	cases := []struct {
		name, want string
		log        []byte
	}{
		{"binary-frame", "removed binary record format", concat(record(0), frame, record(1))},
		{"binary-frame-at-end", "removed binary record format", concat(record(0), frame)},
		{"not-json", "corrupt: begins with 0x67", concat(record(0), []byte("garbage\n"), record(1))},
		{"unparsable-json", "record 2 at byte 8", concat(record(0), []byte("{\"n\":\n"), record(1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			if err := os.WriteFile(path, tc.log, 0o644); err != nil {
				t.Fatal(err)
			}
			var got []int
			_, err := Open(path, SyncGroup, collect(&got))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want an error containing %q", err, tc.want)
			}
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, tc.log) {
				t.Errorf("failed Open changed the file: %q (%v), was %q", after, rerr, tc.log)
			}
		})
	}
}

func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// FuzzScan feeds arbitrary bytes to the replay scan: it never panics, the
// offset it returns is 0 or just past a newline, and n JSON lines followed
// by a '{'-led fragment with no newline replay as exactly n records.
func FuzzScan(f *testing.F) {
	f.Add([]byte(`{"n":0}`+"\n"), uint8(1))
	f.Add([]byte(`{"n":0}`+"\n"+`{"n":1`), uint8(2))
	f.Add([]byte("{}\n\n{}\n"), uint8(0))
	f.Add([]byte("{}\nnot json\n{}\n"), uint8(3))
	f.Add([]byte{binaryMagic, 1, 3, 0, 0, 0, 0, 0, 0, 0, '{', '}', '\n'}, uint8(4))
	f.Add([]byte("{}\n\xb1\x01\x00"), uint8(5))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("\n"), uint8(7))
	f.Add(bytes.Repeat([]byte(`{"k":"v"}`+"\n"), 64), uint8(15))
	path := filepath.Join(f.TempDir(), "wal.log")
	scan := func(t *testing.T, data []byte, visit func([]byte) error) (int64, error) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return Scan(path, visit)
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		valid, err := scan(t, data, func(line []byte) error {
			if line[0] != '{' || line[len(line)-1] != '\n' {
				t.Fatalf("visited %q, not a complete '{'-led line", line)
			}
			return nil
		})
		if valid < 0 || valid > int64(len(data)) || valid > 0 && data[valid-1] != '\n' {
			t.Fatalf("Scan(%q) = %d, %v: offset is not 0 or just past a newline", data, valid, err)
		}

		// lines records built from data's bytes, then the same record torn.
		lines := int(n % 16)
		line := concat([]byte("{"), bytes.ReplaceAll(data, []byte("\n"), nil), []byte("\n"))
		log := concat(bytes.Repeat(line, lines), line[:len(line)-1])
		visits := 0
		valid, err = scan(t, log, func([]byte) error { visits++; return nil })
		if err != nil || visits != lines || valid != int64(lines*len(line)) {
			t.Fatalf("%d lines and a torn tail: Scan = %d, %v after %d visits; want %d, nil after %d",
				lines, valid, err, visits, lines*len(line), lines)
		}
	})
}
