package events

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mineassess/internal/wal"
	"mineassess/internal/walcodec"
)

// TestEventBinaryRoundTrip frames a fully populated event and a minimal one
// through the binary codec and decodes them back via the shared record
// reader, checking structural equality.
func TestEventBinaryRoundTrip(t *testing.T) {
	full := Event{
		Seq: 12, GlobalSeq: 99, Type: AdaptiveFinished,
		ExamID: "e1", SessionID: "s1", StudentID: "stu", ProblemID: "p3",
		Problems: []string{"p1", "p2", "p3"},
		Correct:  true, Credit: 0.5, Answered: 7, Total: 20,
		Score: 14.5, MaxScore: 20, Theta: -0.8, SE: 0.31,
		StopReason: "target-se", Dropped: 3,
		At: time.Unix(0, 1722700000123456789),
	}
	minimal := Event{Type: TypeGap, Dropped: 4}
	var buf []byte
	buf = encodeEventBinary(buf, &full)
	buf = encodeEventBinary(buf, &minimal)
	r := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range []Event{full, minimal} {
		payload, isJSON, _, err := walcodec.NextRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if isJSON {
			t.Fatalf("record %d detected as JSON", i)
		}
		got, err := decodeEventBinary(payload)
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if !got.At.Equal(want.At) {
			t.Errorf("record %d At = %v, want %v", i, got.At, want.At)
		}
		got.At, want.At = time.Time{}, time.Time{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d round-trip mismatch:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

// TestLogMixedCodecReplay switches the event log between codecs across
// restarts: JSON-era records gain binary successors, and a reopen under
// either codec restores counters and replays the full mixed history.
func TestLogMixedCodecReplay(t *testing.T) {
	dir := t.TempDir()
	run := func(codec wal.Codec, n int) {
		t.Helper()
		l, err := OpenLog(dir, LogOptions{Sync: wal.SyncAlways, Codec: codec})
		if err != nil {
			t.Fatalf("open %s: %v", codec, err)
		}
		bus := NewBus(Options{Log: l})
		for i := 0; i < n; i++ {
			bus.Publish(Event{Type: ResponseSubmitted, ExamID: "x", ProblemID: fmt.Sprintf("%s-%d", codec, i)})
		}
		bus.Close()
	}
	run(wal.CodecJSON, 3)
	run(wal.CodecBinary, 3)

	raw := readFile(t, filepath.Join(dir, "events.log"))
	if raw[0] != '{' || bytes.IndexByte(raw, walcodec.Magic) < 0 {
		t.Fatal("log does not contain both JSON lines and binary frames")
	}

	l, err := OpenLog(dir, LogOptions{Sync: wal.SyncAlways, Codec: wal.CodecJSON})
	if err != nil {
		t.Fatalf("reopen over mixed log: %v", err)
	}
	bus := NewBus(Options{Log: l})
	defer bus.Close()
	if got := bus.Seq("x"); got != 6 {
		t.Fatalf("restored seq = %d, want 6", got)
	}
	got := l.ReadSince("x", 0)
	if len(got) != 6 {
		t.Fatalf("replayed %d events from mixed log, want 6: %+v", len(got), got)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if got[0].ProblemID != "json-0" || got[5].ProblemID != "binary-2" {
		t.Fatalf("mixed replay order wrong: first %q last %q", got[0].ProblemID, got[5].ProblemID)
	}
}

// TestLogTornTailBinaryRecovery mirrors TestLogTornTailRecovery for the
// binary codec: a frame torn mid-append is truncated on reopen and the
// intact prefix replays.
func TestLogTornTailBinaryRecovery(t *testing.T) {
	dir := t.TempDir()
	l1, err := OpenLog(dir, LogOptions{Sync: wal.SyncAlways, Codec: wal.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	bus1 := NewBus(Options{Log: l1})
	bus1.Publish(Event{Type: SessionStarted, ExamID: "x"})
	bus1.Publish(Event{Type: SessionFinished, ExamID: "x"})
	bus1.Close()

	path := filepath.Join(dir, "events.log")
	raw := readFile(t, path)
	writeFile(t, path, raw[:len(raw)-7])

	l2, err := OpenLog(dir, LogOptions{Sync: wal.SyncAlways, Codec: wal.CodecBinary})
	if err != nil {
		t.Fatalf("reopen after torn binary tail: %v", err)
	}
	defer l2.Close()
	got := l2.ReadSince("x", 0)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("after torn tail want exactly event 1, got %+v", got)
	}
	if l2.examSeqs["x"] != 1 {
		t.Fatalf("restored seq = %d, want 1", l2.examSeqs["x"])
	}
}

// TestLogRotationRetainsRecentAndAnnouncesGap drives the size bound: each
// over-limit batch rotates the active segment to ".1" (dropping the prior
// predecessor), a resume within retention replays gaplessly, and a resume
// from before the retained tail starts with a stream.gap marker instead of
// silently skipping the rotated-away history.
func TestLogRotationRetainsRecentAndAnnouncesGap(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup, Codec: wal.CodecBinary, MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// MaxBytes 1: every batch rotates. Deterministic single-event batches
	// leave exactly event 3 retained (in the predecessor segment).
	for i := 1; i <= 3; i++ {
		l.writeBatch([]Event{{Type: ResponseSubmitted, ExamID: "x", Seq: uint64(i), GlobalSeq: uint64(i)}})
	}
	if err := l.Err(); err != nil {
		t.Fatalf("rotation failed: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if raw := readFile(t, filepath.Join(dir, "events.log.1")); len(raw) == 0 {
		t.Fatal("no predecessor segment after rotation")
	}

	l2, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup, Codec: wal.CodecBinary, MaxBytes: 1})
	if err != nil {
		t.Fatalf("reopen rotated log: %v", err)
	}
	// Counters survive rotation: the retained segments carry the high seqs.
	if l2.examSeqs["x"] != 3 {
		t.Fatalf("restored seq = %d, want 3", l2.examSeqs["x"])
	}
	// Resume within retention: only event 3 is on disk, nothing is missing
	// after offset 2.
	if got := l2.ReadSince("x", 2); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("ReadSince(2) = %+v, want just event 3", got)
	}

	// Resume from before the retained tail (ring disabled, so the log is
	// the only replay source): the rotated-away events 1..2 must surface as
	// a gap marker ahead of event 3.
	bus := NewBus(Options{Ring: -1, Log: l2})
	defer bus.Close()
	sub := bus.Subscribe(SubscribeOptions{ExamID: "x", Replay: true, AfterSeq: 0})
	defer sub.Close()
	evs, gaps := collect(t, sub, 1, 2*time.Second)
	if len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("replayed %+v, want just event 3", evs)
	}
	dropped := 0
	for _, g := range gaps {
		dropped += g.Dropped
	}
	if dropped != 2 {
		t.Fatalf("announced %d dropped before the retained tail, want 2", dropped)
	}
}
