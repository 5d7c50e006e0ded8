package events

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// split separates a taken batch into events and gap markers.
func split(batch []Event) (evs, gaps []Event) {
	for _, e := range batch {
		if e.Type == TypeGap {
			gaps = append(gaps, e)
		} else {
			evs = append(evs, e)
		}
	}
	return evs, gaps
}

// collect drains a subscription through Ready and Take until n non-gap
// events arrived, Ready closed or the timeout hit, returning events and gap
// markers separately.
func collect(t *testing.T, sub *Subscription, n int, timeout time.Duration) (evs []Event, gaps []Event) {
	t.Helper()
	deadline := time.After(timeout)
	for len(evs) < n {
		select {
		case _, ok := <-sub.Ready():
			if !ok {
				return evs, gaps
			}
			e, g := split(sub.Take(nil))
			evs, gaps = append(evs, e...), append(gaps, g...)
		case <-deadline:
			t.Fatalf("timed out with %d/%d events", len(evs), n)
		}
	}
	return evs, gaps
}

// readyClosed reports whether sub's Ready channel is closed, discarding a
// pending signal first.
func readyClosed(sub *Subscription) bool {
	for i := 0; i < 2; i++ {
		select {
		case _, ok := <-sub.Ready():
			if !ok {
				return true
			}
		default:
			return false
		}
	}
	return false
}

func TestPerExamSequencesAreMonotonic(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	sub := bus.Subscribe(SubscribeOptions{})
	defer sub.Close()

	for i := 0; i < 3; i++ {
		bus.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "a"})
		bus.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "b"})
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

	bus.Publish(context.Background(), Event{Type: SessionStarted, ExamID: "other"})
	bus.Publish(context.Background(), Event{Type: SessionStarted, ExamID: "want"})
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
			bus.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"})
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a slow consumer")
	}

	// Everything published is already queued: one Take returns the gap
	// marker, then the newest buffer's worth in order.
	batch := sub.Take(nil)
	if len(batch) != buffer+1 || batch[0].Type != TypeGap || batch[0].Dropped != published-buffer {
		t.Fatalf("want a gap of %d then %d events, got %+v", published-buffer, buffer, batch)
	}
	for i, e := range batch[1:] {
		if want := uint64(published - buffer + 1 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

// TestReplayFromOffset pins Last-Event-ID semantics at the bus level:
// Replay+AfterSeq delivers exactly the missed events, then goes live.
func TestReplayFromOffset(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	for i := 0; i < 5; i++ {
		bus.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x", ProblemID: fmt.Sprintf("q%d", i+1)})
	}
	sub := bus.Subscribe(SubscribeOptions{ExamID: "x", Replay: true, AfterSeq: 2})
	defer sub.Close()
	bus.Publish(context.Background(), Event{Type: SessionFinished, ExamID: "x"}) // live tail

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
		bus.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"})
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

// TestResumeDeliversWholeReplayDespiteLivePublish: a publish landing right
// after a resume must not trim the replay to the live bound. The backlog
// is delivered whole, then the live event, with no gap.
func TestResumeDeliversWholeReplayDespiteLivePublish(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	const replayed = 1000 // within DefaultRing, well over DefaultBuffer
	for i := 0; i < replayed; i++ {
		bus.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"})
	}
	sub := bus.Subscribe(SubscribeOptions{ExamID: "x", Replay: true})
	defer sub.Close()
	bus.Publish(context.Background(), Event{Type: SessionFinished, ExamID: "x"})

	evs, gaps := split(sub.Take(nil))
	if len(gaps) != 0 || len(evs) != replayed+1 {
		t.Fatalf("resume delivered %d events and %d gaps (%+v), want %d and none",
			len(evs), len(gaps), gaps, replayed+1)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
}

// TestSubscribeStartsNoGoroutine: a subscription is a queue, not a
// goroutine.
func TestSubscribeStartsNoGoroutine(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	before := runtime.NumGoroutine()
	subs := make([]*Subscription, 100)
	for i := range subs {
		subs[i] = bus.Subscribe(SubscribeOptions{Replay: true})
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("100 subscriptions raised the goroutine count from %d to %d", before, after)
	}
	for _, sub := range subs {
		sub.Close()
	}
}

// TestEndingASubscriptionClosesReady: every way a subscription ends closes
// its Ready channel, with a signal still pending or not.
func TestEndingASubscriptionClosesReady(t *testing.T) {
	for name, end := range map[string]func(*Bus, *Subscription){
		"Close":             func(_ *Bus, sub *Subscription) { sub.Close() },
		"DetachSubscribers": func(bus *Bus, _ *Subscription) { bus.DetachSubscribers() },
		"Bus.Close":         func(bus *Bus, _ *Subscription) { bus.Close() },
	} {
		t.Run(name, func(t *testing.T) {
			bus := NewBus(Options{})
			defer bus.Close()
			idle := bus.Subscribe(SubscribeOptions{ExamID: "idle"})
			sub := bus.Subscribe(SubscribeOptions{ExamID: "x"})
			defer sub.Close()
			bus.Publish(context.Background(), Event{Type: SessionStarted, ExamID: "x"})
			end(bus, sub)
			if !readyClosed(sub) {
				t.Error("Ready still open with a signal pending")
			}
			if name != "Close" && !readyClosed(idle) {
				t.Error("Ready still open on an idle subscription")
			}
			idle.Close()
		})
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
			var batch []Event
			for range sub.Ready() {
				batch = sub.Take(batch[:0])
				for _, e := range batch {
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
			}
		}(sub, s%2 == 0)
	}

	var emit sync.WaitGroup
	for w := 0; w < emitters; w++ {
		emit.Add(1)
		go func(w int) {
			defer emit.Done()
			for i := 0; i < perEmitter; i++ {
				bus.Publish(context.Background(), Event{
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
	nilBus.Publish(context.Background(), Event{Type: SessionStarted, ExamID: "x"}) // must not panic
	nilBus.Close()
	if sub := nilBus.Subscribe(SubscribeOptions{}); sub != nil {
		t.Fatal("nil bus returned a subscription")
	}

	bus := NewBus(Options{})
	bus.Close()
	bus.Publish(context.Background(), Event{Type: SessionStarted, ExamID: "x"}) // no-op
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
		bus1.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x", ProblemID: fmt.Sprintf("q%d", i+1)})
	}
	bus1.Close() // flushes and closes the log

	log2, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	bus2 := NewBus(Options{Log: log2})
	defer bus2.Close()
	bus2.Publish(context.Background(), Event{Type: SessionFinished, ExamID: "x"})
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

// TestLogReplayKeepsNewestRing: a resume from 0 over a long durable log
// holds the newest ring's worth of events, however small the live buffer,
// and announces the rest with one leading gap.
func TestLogReplayKeepsNewestRing(t *testing.T) {
	dir := t.TempDir()
	log1, err := OpenLog(dir, LogOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	bus1 := NewBus(Options{Log: log1})
	const logged = 5000
	for i := 0; i < logged; i++ {
		bus1.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"})
	}
	bus1.Close()

	log2, err := OpenLog(dir, LogOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	bus2 := NewBus(Options{Log: log2})
	defer bus2.Close()
	sub := bus2.Subscribe(SubscribeOptions{ExamID: "x", Buffer: 4, Replay: true})
	defer sub.Close()
	evs, gaps := split(sub.Take(nil))
	if len(evs) > DefaultRing || len(gaps) != 1 || len(evs)+gaps[0].Dropped != logged {
		t.Fatalf("replayed %d events and gaps %+v, want at most %d events plus one gap totalling %d",
			len(evs), gaps, DefaultRing, logged)
	}
	for i, e := range evs {
		if want := uint64(logged - len(evs) + 1 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

// TestLogTornTailRecovery: a torn final line (simulated crash mid-append)
// is truncated on reopen and the intact prefix replays.
func TestLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	log1, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	bus1 := NewBus(Options{Log: log1})
	bus1.Publish(context.Background(), Event{Type: SessionStarted, ExamID: "x"})
	bus1.Publish(context.Background(), Event{Type: SessionFinished, ExamID: "x"})
	bus1.Close()

	// Tear the tail mid-record.
	path := dir + "/events.log"
	raw := readFile(t, path)
	writeFile(t, path, raw[:len(raw)-7])

	log2, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer log2.Close()
	got := log2.ReadSince("x", 0, DefaultRing)
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
			l, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup})
			if err != nil {
				t.Fatal(err)
			}
			bus := NewBus(Options{Log: l})
			bus.Publish(context.Background(), Event{Type: SessionStarted, ExamID: "x"})
			bus.Publish(context.Background(), Event{Type: SessionFinished, ExamID: "x"})
			bus.Close()

			path := filepath.Join(dir, "events.log")
			first, rest, _ := bytes.Cut(readFile(t, path), []byte("\n"))
			raw := tc.corrupt(append(first, '\n'), rest)
			writeFile(t, path, raw)
			if _, err := OpenLog(dir, LogOptions{Sync: wal.SyncGroup}); err == nil ||
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
	if got := l2.ReadSince("x", 2, DefaultRing); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("ReadSince(2) = %+v, want just event 3", got)
	}

	// Resume from before the retained tail (the new bus's ring is empty, so
	// the log is the only replay source): the rotated-away events 1..2 must
	// surface as a gap marker ahead of event 3.
	bus := NewBus(Options{Log: l2})
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
	bus1.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"}) // seq 1
	bus1.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"}) // seq 2
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
		bus2.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"}) // 3..6
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

// TestResumeInsideRingSkipsLog: a resume whose missed events are all in the
// replay ring is served from memory, however long the durable log is, so
// its cost follows the gap rather than the log's size. Decoding the 5,000
// logged records would cost tens of thousands of allocations.
func TestResumeInsideRingSkipsLog(t *testing.T) {
	dir := t.TempDir()
	log1, err := OpenLog(dir, LogOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	bus1 := NewBus(Options{Log: log1})
	const logged = 5000
	for i := 0; i < logged; i++ {
		bus1.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"})
	}
	bus1.Close()

	log2, err := OpenLog(dir, LogOptions{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	bus2 := NewBus(Options{Log: log2})
	defer bus2.Close()
	for i := 0; i < 10; i++ {
		bus2.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"}) // 5001..5010
	}
	// One exam, so its Seq and the firehose's GlobalSeq coincide.
	for _, exam := range []string{"x", ""} {
		resume := func() []Event {
			sub := bus2.Subscribe(SubscribeOptions{ExamID: exam, Replay: true, AfterSeq: logged + 9})
			defer sub.Close()
			return sub.Take(nil)
		}
		got := resume()
		if len(got) != 1 || got[0].Type == TypeGap || got[0].Seq != logged+10 || got[0].GlobalSeq != logged+10 {
			t.Fatalf("exam %q: resume from %d delivered %+v, want exactly seq %d", exam, logged+9, got, logged+10)
		}
		allocs := testing.AllocsPerRun(20, func() { resume() })
		t.Logf("exam %q: %.0f allocs per resume", exam, allocs)
		if allocs > 50 {
			t.Errorf("exam %q: a resume inside the ring allocates %.0f times, want at most 50", exam, allocs)
		}
	}
}

// TestDetachSubscribersKeepsPublishing: draining a server must end
// subscriptions while the rings (and log) keep recording — the resume
// story has no hole for requests finishing during the drain.
func TestDetachSubscribersKeepsPublishing(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	sub := bus.Subscribe(SubscribeOptions{ExamID: "x"})
	bus.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"})
	collect(t, sub, 1, 2*time.Second)

	bus.DetachSubscribers()
	if !readyClosed(sub) {
		t.Fatal("subscription still open after detach")
	}
	// Publishes after detach still advance state and land in the ring.
	bus.Publish(context.Background(), Event{Type: SessionFinished, ExamID: "x"})
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
	bus.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"}) // seq 1: its append fails
	deadline := time.Now().Add(2 * time.Second)
	for log.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(log.Err(), errInjected) {
		t.Fatalf("Err() = %v after a failed append, want the write failure", log.Err())
	}
	for i := 0; i < 3; i++ {
		bus.Publish(context.Background(), Event{Type: ResponseSubmitted, ExamID: "x"}) // 2..4
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

// TestStalledSubscriberCostIsFlat pins the emitter-side cost of a stalled
// subscriber: once its queue is full, each publish drops the oldest queued
// event in O(1), so a publish behind an 8,192-deep stalled queue costs
// about what one behind a 256-deep queue does. The median ratio over
// alternating rounds must stay within 5x; a drop that costs O(depth) reads
// ~30x.
func TestStalledSubscriberCostIsFlat(t *testing.T) {
	const publishes, rounds, limit = 5000, 9, 5.0
	ctx := context.Background()
	stalled := func(buffer int) func() time.Duration {
		bus := NewBus(Options{})
		t.Cleanup(bus.Close)
		sub := bus.Subscribe(SubscribeOptions{ExamID: "x", Buffer: buffer})
		t.Cleanup(sub.Close)
		for i := 0; i < buffer; i++ {
			bus.Publish(ctx, Event{Type: ResponseSubmitted, ExamID: "x"})
		}
		return func() time.Duration {
			start := time.Now()
			for i := 0; i < publishes; i++ {
				bus.Publish(ctx, Event{Type: ResponseSubmitted, ExamID: "x"})
			}
			return time.Since(start)
		}
	}
	deep, shallow := stalled(8192), stalled(DefaultBuffer)
	ratios := make([]float64, rounds)
	for i := range ratios {
		d := deep()
		ratios[i] = float64(d) / float64(shallow())
	}
	sort.Float64s(ratios)
	median := ratios[rounds/2]
	t.Logf("8,192-deep vs 256-deep stalled subscriber, publish cost ratio per round, sorted, %.2f (median %.2f)", ratios, median)
	if median > limit {
		t.Errorf("a publish behind an 8,192-deep stalled subscriber costs %.1fx one behind a 256-deep one, want <= %.0fx", median, limit)
	}
}

// TestQuietExamsHoldSmallRings pins on-demand ring growth: one event to
// each of 100 exams must leave under 1 MB of ring capacity, counted as
// backing-array slots rather than heap so the reading is exact.
func TestQuietExamsHoldSmallRings(t *testing.T) {
	bus := NewBus(Options{})
	defer bus.Close()
	for i := 0; i < 100; i++ {
		bus.Publish(context.Background(), Event{Type: SessionStarted, ExamID: fmt.Sprintf("exam-%03d", i)})
	}
	bus.mu.Lock()
	slots := cap(bus.allRing.buf)
	for _, r := range bus.rings {
		slots += cap(r.buf)
	}
	bus.mu.Unlock()
	held := uintptr(slots) * unsafe.Sizeof(Event{})
	t.Logf("100 one-event exams: %d ring slots, %d bytes", slots, held)
	if held >= 1<<20 {
		t.Errorf("100 one-event exams hold %d bytes of rings, want < 1 MB", held)
	}
}
