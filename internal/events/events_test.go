package events

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mineassess/internal/wal"
)

// failingSink fails every append, as a full disk would.
type failingSink struct{ wal.Sink }

var errInjected = errors.New("injected write failure")

func (failingSink) Write([]byte) (int, error) { return 0, errInjected }

// failWrites makes every later append to l fail. Call it before l's writer
// has seen an event (the writer owns the file once it has).
func failWrites(l *Log) {
	l.file.WrapSink(func(s wal.Sink) wal.Sink { return failingSink{s} })
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// collect drains a subscription until n non-gap events arrived or the
// timeout hits, returning events and gap markers separately.
func collect(t *testing.T, sub *Subscription, n int, timeout time.Duration) (evs []Event, gaps []Event) {
	t.Helper()
	deadline := time.After(timeout)
	for len(evs) < n {
		select {
		case e, ok := <-sub.Events():
			if !ok {
				return evs, gaps
			}
			if e.Type == TypeGap {
				gaps = append(gaps, e)
			} else {
				evs = append(evs, e)
			}
		case <-deadline:
			t.Fatalf("timed out with %d/%d events", len(evs), n)
		}
	}
	return evs, gaps
}

func TestPerExamSequencesAreMonotonic(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	sub := bus.Subscribe(SubscribeOptions{})
	defer sub.Close()

	for i := 0; i < 3; i++ {
		bus.Publish(Event{Type: ResponseSubmitted, ExamID: "a"})
		bus.Publish(Event{Type: ResponseSubmitted, ExamID: "b"})
	}
	evs, _ := collect(t, sub, 6, 2*time.Second)
	wantA, wantB := uint64(1), uint64(1)
	for _, e := range evs {
		switch e.ExamID {
		case "a":
			if e.Seq != wantA {
				t.Fatalf("exam a seq = %d, want %d", e.Seq, wantA)
			}
			wantA++
		case "b":
			if e.Seq != wantB {
				t.Fatalf("exam b seq = %d, want %d", e.Seq, wantB)
			}
			wantB++
		}
		if e.GlobalSeq == 0 {
			t.Fatal("missing global sequence")
		}
		if e.At.IsZero() {
			t.Fatal("missing timestamp")
		}
	}
	if got := bus.Seq("a"); got != 3 {
		t.Fatalf("bus.Seq(a) = %d, want 3", got)
	}
}

func TestExamFilteredSubscription(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	sub := bus.Subscribe(SubscribeOptions{ExamID: "want"})
	defer sub.Close()

	bus.Publish(Event{Type: SessionStarted, ExamID: "other"})
	bus.Publish(Event{Type: SessionStarted, ExamID: "want"})
	evs, _ := collect(t, sub, 1, 2*time.Second)
	if evs[0].ExamID != "want" {
		t.Fatalf("got exam %q", evs[0].ExamID)
	}
}

// TestSlowConsumerDropsOldestWithGapMarker pins the slow-consumer policy:
// the emitter is never blocked, the OLDEST queued events are discarded, and
// the loss is announced in-stream by a gap marker whose Dropped count makes
// the accounting exact.
func TestSlowConsumerDropsOldestWithGapMarker(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	const buffer, published = 4, 40
	sub := bus.Subscribe(SubscribeOptions{ExamID: "x", Buffer: buffer})
	defer sub.Close()

	// Nobody reads while everything is published: the bounded queue must
	// absorb the burst by shedding oldest events, not by blocking Publish.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= published; i++ {
			bus.Publish(Event{Type: ResponseSubmitted, ExamID: "x"})
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a slow consumer")
	}

	evs, gaps := collect(t, sub, 1, 2*time.Second)
	// Drain the rest.
	for {
		var e Event
		var ok bool
		select {
		case e, ok = <-sub.Events():
		case <-time.After(200 * time.Millisecond):
			ok = false
		}
		if !ok {
			break
		}
		if e.Type == TypeGap {
			gaps = append(gaps, e)
		} else {
			evs = append(evs, e)
		}
		if len(evs) > 0 && evs[len(evs)-1].Seq == published {
			break
		}
	}
	if len(gaps) == 0 {
		t.Fatal("no gap marker for dropped events")
	}
	dropped := 0
	for _, g := range gaps {
		dropped += g.Dropped
	}
	if len(evs)+dropped != published {
		t.Fatalf("delivered %d + dropped %d != published %d", len(evs), dropped, published)
	}
	// Order preserved, newest survives.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("out of order: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	if evs[len(evs)-1].Seq != published {
		t.Fatalf("newest event lost: last delivered seq %d", evs[len(evs)-1].Seq)
	}
}

// TestReplayFromOffset pins Last-Event-ID semantics at the bus level:
// Replay+AfterSeq delivers exactly the missed events, then goes live.
func TestReplayFromOffset(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	for i := 0; i < 5; i++ {
		bus.Publish(Event{Type: ResponseSubmitted, ExamID: "x", ProblemID: fmt.Sprintf("q%d", i+1)})
	}
	sub := bus.Subscribe(SubscribeOptions{ExamID: "x", Replay: true, AfterSeq: 2})
	defer sub.Close()
	bus.Publish(Event{Type: SessionFinished, ExamID: "x"}) // live tail

	evs, gaps := collect(t, sub, 4, 2*time.Second)
	if len(gaps) != 0 {
		t.Fatalf("unexpected gap markers: %+v", gaps)
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if evs[i].Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
}

// TestReplayBeyondRingAnnouncesGap: an offset older than the replay window
// yields a gap marker, never silent loss.
func TestReplayBeyondRingAnnouncesGap(t *testing.T) {
	bus := NewBus(Options{Ring: 4})
	defer bus.Close()
	for i := 0; i < 10; i++ {
		bus.Publish(Event{Type: ResponseSubmitted, ExamID: "x"})
	}
	sub := bus.Subscribe(SubscribeOptions{ExamID: "x", Replay: true, AfterSeq: 0})
	defer sub.Close()
	evs, gaps := collect(t, sub, 4, 2*time.Second)
	if len(gaps) != 1 || gaps[0].Dropped != 6 {
		t.Fatalf("want one gap marker with Dropped=6, got %+v", gaps)
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("ring replay seqs = %d..%d, want 7..10", evs[0].Seq, evs[3].Seq)
	}
}

// TestConcurrentEmittersAndSubscribers is the -race exercise: many emitters
// and subscribers (some resuming mid-stream, some closing early) must not
// race, and every subscriber must observe strictly increasing per-exam
// sequences with gap markers accounting for anything missing.
func TestConcurrentEmittersAndSubscribers(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	const emitters, perEmitter, subscribers = 8, 200, 6
	exams := []string{"e1", "e2", "e3"}

	var wg sync.WaitGroup
	for s := 0; s < subscribers; s++ {
		sub := bus.Subscribe(SubscribeOptions{ExamID: exams[s%len(exams)], Buffer: 64})
		wg.Add(1)
		go func(sub *Subscription, early bool) {
			defer wg.Done()
			defer sub.Close()
			last := uint64(0)
			missing := 0
			n := 0
			for e := range sub.Events() {
				if e.Type == TypeGap {
					missing += e.Dropped
					continue
				}
				if e.Seq <= last {
					t.Errorf("seq went backwards: %d after %d", e.Seq, last)
					return
				}
				if int(e.Seq-last-1) != 0 && missing < int(e.Seq-last-1) {
					// Gaps must be announced before the jump.
					t.Errorf("silent gap: jumped %d -> %d with %d announced", last, e.Seq, missing)
					return
				}
				missing -= int(e.Seq - last - 1)
				last = e.Seq
				n++
				if early && n > perEmitter {
					return // close mid-stream while emitters are running
				}
			}
		}(sub, s%2 == 0)
	}

	var emit sync.WaitGroup
	for w := 0; w < emitters; w++ {
		emit.Add(1)
		go func(w int) {
			defer emit.Done()
			for i := 0; i < perEmitter; i++ {
				bus.Publish(Event{
					Type:      ResponseSubmitted,
					ExamID:    exams[(w+i)%len(exams)],
					SessionID: fmt.Sprintf("s%d", w),
				})
			}
		}(w)
	}
	emit.Wait()
	bus.Close() // ends every subscriber loop
	wg.Wait()
}

func TestPublishOnNilAndClosedBus(t *testing.T) {
	var nilBus *Bus
	nilBus.Publish(Event{Type: SessionStarted, ExamID: "x"}) // must not panic
	nilBus.Close()
	if sub := nilBus.Subscribe(SubscribeOptions{}); sub != nil {
		t.Fatal("nil bus returned a subscription")
	}

	bus := NewBus(Options{})
	bus.Close()
	bus.Publish(Event{Type: SessionStarted, ExamID: "x"}) // no-op
	if sub := bus.Subscribe(SubscribeOptions{}); sub != nil {
		t.Fatal("closed bus returned a subscription")
	}
}

// TestDurableLogReplayAcrossRestart: with a Log attached, sequence numbers
// continue across a bus restart and a reconnecting subscriber replays the
// missed events from disk even though the new bus's ring never saw them.
func TestDurableLogReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	log1, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	bus1 := NewBus(Options{Log: log1})
	for i := 0; i < 5; i++ {
		bus1.Publish(Event{Type: ResponseSubmitted, ExamID: "x", ProblemID: fmt.Sprintf("q%d", i+1)})
	}
	bus1.Close() // flushes and closes the log

	log2, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	bus2 := NewBus(Options{Log: log2})
	defer bus2.Close()
	bus2.Publish(Event{Type: SessionFinished, ExamID: "x"})
	if got := bus2.Seq("x"); got != 6 {
		t.Fatalf("restarted bus seq = %d, want 6 (numbering must continue)", got)
	}

	sub := bus2.Subscribe(SubscribeOptions{ExamID: "x", Replay: true, AfterSeq: 2})
	defer sub.Close()
	evs, gaps := collect(t, sub, 4, 2*time.Second)
	if len(gaps) != 0 {
		t.Fatalf("unexpected gaps: %+v", gaps)
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if evs[i].Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
	// Events 3..5 can only have come from the durable log: bus2's ring
	// never saw them.
	if evs[0].ProblemID != "q3" {
		t.Fatalf("replayed event 3 = %q, want q3", evs[0].ProblemID)
	}
}

// TestLogTornTailRecovery: a torn final line (simulated crash mid-append)
// is truncated on reopen and the intact prefix replays.
func TestLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	log1, err := OpenLog(dir, LogOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	bus1 := NewBus(Options{Log: log1})
	bus1.Publish(Event{Type: SessionStarted, ExamID: "x"})
	bus1.Publish(Event{Type: SessionFinished, ExamID: "x"})
	bus1.Close()

	// Tear the tail mid-record.
	path := dir + "/events.log"
	raw := readFile(t, path)
	writeFile(t, path, raw[:len(raw)-7])

	log2, err := OpenLog(dir, LogOptions{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer log2.Close()
	got := log2.ReadSince("x", 0)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("after torn tail want exactly event 1, got %+v", got)
	}
	if log2.examSeqs["x"] != 1 {
		t.Fatalf("restored seq = %d, want 1", log2.examSeqs["x"])
	}
}

// TestLogCorruptRecord: a complete record that cannot be replayed — an
// unparsable JSON line before the last record, or a frame left by the
// removed binary record format — fails OpenLog with an error naming the
// record, and events.log is left byte-identical.
func TestLogCorruptRecord(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(first, rest []byte) []byte
	}{
		{"unparsable-json", "record 1 at byte 0", func(first, rest []byte) []byte {
			return append(append(first[:len(first)/2:len(first)/2], '\n'), rest...)
		}},
		{"binary-frame", "removed binary record format", func(first, rest []byte) []byte {
			frame := []byte("\xb1\x01\x04\x00\x00\x00\x00\x00\x00\x00\x01\x01\x00x")
			return bytes.Join([][]byte{first, frame, rest}, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenLog(dir, LogOptions{Sync: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			bus := NewBus(Options{Log: l})
			bus.Publish(Event{Type: SessionStarted, ExamID: "x"})
			bus.Publish(Event{Type: SessionFinished, ExamID: "x"})
			bus.Close()

			path := filepath.Join(dir, "events.log")
			first, rest, _ := bytes.Cut(readFile(t, path), []byte("\n"))
			raw := tc.corrupt(append(first, '\n'), rest)
			writeFile(t, path, raw)
			if _, err := OpenLog(dir, LogOptions{Sync: wal.SyncAlways}); err == nil ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenLog over a corrupt record = %v, want an error containing %q", err, tc.want)
			}
			if after := readFile(t, path); !bytes.Equal(after, raw) {
				t.Errorf("failed OpenLog changed events.log:\n%q\nwas\n%q", after, raw)
			}
		})
	}
}

// TestLogRotationRetainsRecentAndAnnouncesGap drives the size bound: each
// over-limit batch rotates the active segment to ".1" (dropping the prior
// predecessor), a resume within retention replays gaplessly, and a resume
// from before the retained tail starts with a stream.gap marker instead of
// silently skipping the rotated-away history.
func TestLogRotationRetainsRecentAndAnnouncesGap(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup, MaxBytes: 1})
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

	l2, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup, MaxBytes: 1})
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

// TestReplaySeamBetweenLogAndRingAnnouncesGap: when the durable log's
// flushed tail trails the replay ring's oldest entry (slow disk, stalled
// writer), the hole between the two segments must surface as a gap marker,
// not vanish.
func TestReplaySeamBetweenLogAndRingAnnouncesGap(t *testing.T) {
	dir := t.TempDir()
	log1, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	bus1 := NewBus(Options{Log: log1})
	bus1.Publish(Event{Type: ResponseSubmitted, ExamID: "x"}) // seq 1
	bus1.Publish(Event{Type: ResponseSubmitted, ExamID: "x"}) // seq 2
	bus1.Close()

	log2, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	bus2 := NewBus(Options{Ring: 2, Log: log2})
	defer bus2.Close()
	// Stall the log writer so events 3..6 reach the ring but never the
	// file: the tiny ring then holds only [5,6] while the log ends at 2.
	failWrites(log2)
	for i := 0; i < 4; i++ {
		bus2.Publish(Event{Type: ResponseSubmitted, ExamID: "x"}) // 3..6
	}

	sub := bus2.Subscribe(SubscribeOptions{ExamID: "x", Replay: true, AfterSeq: 0})
	defer sub.Close()
	evs, gaps := collect(t, sub, 4, 2*time.Second)
	var seqs []uint64
	for _, e := range evs {
		seqs = append(seqs, e.Seq)
	}
	if fmt.Sprint(seqs) != "[1 2 5 6]" {
		t.Fatalf("replayed seqs = %v, want [1 2 5 6]", seqs)
	}
	dropped := 0
	for _, g := range gaps {
		dropped += g.Dropped
	}
	if dropped != 2 {
		t.Fatalf("announced %d dropped at the log/ring seam, want 2 (events 3,4)", dropped)
	}
}

// TestDetachSubscribersKeepsPublishing: draining a server must end
// subscriptions while the rings (and log) keep recording — the resume
// story has no hole for requests finishing during the drain.
func TestDetachSubscribersKeepsPublishing(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	sub := bus.Subscribe(SubscribeOptions{ExamID: "x"})
	bus.Publish(Event{Type: ResponseSubmitted, ExamID: "x"})
	collect(t, sub, 1, 2*time.Second)

	bus.DetachSubscribers()
	if _, ok := <-sub.Events(); ok {
		t.Fatal("subscription channel still open after detach")
	}
	// Publishes after detach still advance state and land in the ring.
	bus.Publish(Event{Type: SessionFinished, ExamID: "x"})
	if got := bus.Seq("x"); got != 2 {
		t.Fatalf("seq after detach = %d, want 2", got)
	}
	sub2 := bus.Subscribe(SubscribeOptions{ExamID: "x", Replay: true, AfterSeq: 1})
	defer sub2.Close()
	evs, gaps := collect(t, sub2, 1, 2*time.Second)
	if len(gaps) != 0 || evs[0].Seq != 2 {
		t.Fatalf("post-detach event not replayable: evs=%+v gaps=%+v", evs, gaps)
	}
}

// TestReplayRingDisabledAnnouncesUnflushedTail: with the ring disabled and
// the durable log's writer behind, replay serves the flushed prefix and
// announces everything still in flight as a gap instead of losing it
// silently.
func TestReplayRingDisabledAnnouncesUnflushedTail(t *testing.T) {
	dir := t.TempDir()
	log1, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	bus1 := NewBus(Options{Log: log1})
	bus1.Publish(Event{Type: ResponseSubmitted, ExamID: "x"}) // seq 1
	bus1.Publish(Event{Type: ResponseSubmitted, ExamID: "x"}) // seq 2
	bus1.Close()

	log2, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	bus2 := NewBus(Options{Ring: -1, Log: log2})
	defer bus2.Close()
	failWrites(log2)
	bus2.Publish(Event{Type: ResponseSubmitted, ExamID: "x"}) // seq 3, never flushed

	sub := bus2.Subscribe(SubscribeOptions{ExamID: "x", Replay: true, AfterSeq: 0})
	defer sub.Close()
	evs, gaps := collect(t, sub, 2, 2*time.Second)
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("flushed prefix seqs = %d,%d", evs[0].Seq, evs[1].Seq)
	}
	// The unflushed tail (seq 3) is announced as a trailing gap marker.
	select {
	case e, ok := <-sub.Events():
		if !ok || e.Type != TypeGap || e.Dropped != 1 {
			t.Fatalf("want trailing gap with Dropped=1, got %+v (gaps so far %+v)", e, gaps)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("no gap marker for the unflushed tail (gaps so far %+v)", gaps)
	}
}

// TestLogWriteFailureIsReported: the first failed append latches Err, the
// events after it count in Dropped, live subscribers still get every event,
// and Close returns the failure. A clean Close leaves Err nil.
func TestLogWriteFailureIsReported(t *testing.T) {
	log, err := OpenLog(t.TempDir(), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bus := NewBus(Options{Log: log})
	sub := bus.Subscribe(SubscribeOptions{ExamID: "x"})
	defer sub.Close()
	failWrites(log)
	bus.Publish(Event{Type: ResponseSubmitted, ExamID: "x"}) // seq 1: its append fails
	deadline := time.Now().Add(2 * time.Second)
	for log.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(log.Err(), errInjected) {
		t.Fatalf("Err() = %v after a failed append, want the write failure", log.Err())
	}
	for i := 0; i < 3; i++ {
		bus.Publish(Event{Type: ResponseSubmitted, ExamID: "x"}) // 2..4
	}
	evs, gaps := collect(t, sub, 4, 2*time.Second)
	if len(gaps) != 0 || evs[0].Seq != 1 || evs[3].Seq != 4 {
		t.Fatalf("live delivery after log failure: evs=%+v gaps=%+v", evs, gaps)
	}
	bus.Close() // drains the writer
	if got := log.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d, want 3 (the events after the failure)", got)
	}
	if !errors.Is(log.Err(), errInjected) {
		t.Errorf("Err() = %v after Close, want the write failure", log.Err())
	}

	failed, err := OpenLog(t.TempDir(), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	failWrites(failed)
	failed.enqueue(Event{Type: SessionStarted, ExamID: "x", Seq: 1, GlobalSeq: 1})
	if err := failed.Close(); !errors.Is(err, errInjected) {
		t.Errorf("Close() = %v, want the write failure", err)
	}

	clean, err := OpenLog(t.TempDir(), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean.enqueue(Event{Type: SessionStarted, ExamID: "x", Seq: 1, GlobalSeq: 1})
	if err := clean.Close(); err != nil || clean.Err() != nil {
		t.Errorf("clean Close() = %v, Err() = %v; want nil, nil", err, clean.Err())
	}
}
