package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"mineassess/internal/events"
	"mineassess/internal/livestats"
	"mineassess/internal/race"
)

// statsWriteKB is the recorded cost of writing one 40-item stats frame,
// beyond building its snapshot: the frame is assembled by a pooled encoder
// in a pooled buffer, so a warm write allocates next to nothing of its own.
// A reading may exceed it by 20% plus half a KB of noise.
const (
	statsWriteKB        = 0.01
	statsWriteKBCeiling = statsWriteKB*1.2 + 0.5
)

// liveClass returns a server whose live statistics have folded sittings of
// exam "ex" over items: each of the first finished sittings ends, the rest
// stay open. Learners answer item i correctly when i is below a cut that
// rises with the sitting, so items and scores vary.
func liveClass(t *testing.T, items []string, sittings, finished int) *Server {
	t.Helper()
	bus := events.NewBus(events.Options{})
	t.Cleanup(bus.Close)
	agg := livestats.New(bus)
	t.Cleanup(agg.Close)
	ctx := context.Background()
	for s := 0; s < sittings; s++ {
		sid := fmt.Sprintf("s%03d", s)
		bus.Publish(ctx, events.Event{Type: events.SessionStarted, ExamID: "ex", SessionID: sid,
			Problems: items, Total: len(items)})
		for i, pid := range items {
			bus.Publish(ctx, events.Event{Type: events.ResponseSubmitted, ExamID: "ex", SessionID: sid,
				ProblemID: pid, Correct: (i*7+s*3)%len(items) < len(items)*(s+1)/(sittings+1)})
		}
		if s < finished {
			bus.Publish(ctx, events.Event{Type: events.SessionFinished, ExamID: "ex", SessionID: sid})
		}
	}
	head := bus.Seq("ex")
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if seq, _ := agg.Seq("ex"); seq >= head {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live statistics never folded seq %d", head)
		}
	}
	return &Server{live: agg}
}

func fortyItems() []string {
	items := make([]string, 40)
	for i := range items {
		items[i] = fmt.Sprintf("q%02d", i)
	}
	return items
}

// writeCounter records a response and counts the Write calls it took.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}

// TestStatsFrameBytes: a stats frame is "event: stats", no id, and the
// snapshot exactly as json.Marshal encodes it, escapes included, written in
// one call.
func TestStatsFrameBytes(t *testing.T) {
	for _, tc := range []struct {
		name               string
		items              []string
		sittings, finished int
		check              func(raw []byte) bool
	}{
		{"40 items with point-biserials and KR-20", fortyItems(), 60, 60, func(raw []byte) bool {
			return bytes.Count(raw, []byte(`"pointBiserial"`)) == 40 && bytes.Contains(raw, []byte(`"kr20"`))
		}},
		{"40 items before any index is defined", fortyItems(), 3, 1, func(raw []byte) bool {
			return !bytes.Contains(raw, []byte(`"pointBiserial"`)) && !bytes.Contains(raw, []byte(`"kr20"`))
		}},
		{"a problem ID that holds <, > and &", []string{"q<1>&2", "q2", "q3"}, 8, 8, func(raw []byte) bool {
			return bytes.Contains(raw, []byte(`"q\u003c1\u003e\u00262"`))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := liveClass(t, tc.items, tc.sittings, tc.finished)
			snap, ok := s.live.Snapshot("ex")
			if !ok {
				t.Fatal("no snapshot")
			}
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(raw) {
				t.Fatalf("the snapshot is not the case under test: %s", raw)
			}
			want := "event: stats\ndata: " + string(raw) + "\n\n"
			w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
			var seq uint64
			sent := false
			if wrote, ok := s.tryStats(w, "ex", snap.Seq, &seq, &sent); !wrote || !ok {
				t.Fatalf("tryStats = (%v, %v), want a frame", wrote, ok)
			}
			if got := w.Body.String(); got != want {
				t.Fatalf("stats frame\n got %q\nwant %q", got, want)
			}
			if w.writes != 1 {
				t.Fatalf("the frame took %d writes, want 1", w.writes)
			}
		})
	}
}

// TestStatsFrameFailedEncodeWritesNothing: a snapshot that cannot be
// encoded fails before any byte of its frame is written.
func TestStatsFrameFailedEncodeWritesNothing(t *testing.T) {
	w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
	if err := writeStats(w, &livestats.ExamLiveStats{ExamID: "ex", MeanScore: math.NaN()}); err == nil {
		t.Fatal("a NaN mean encoded")
	}
	if w.writes != 0 || w.Body.Len() != 0 {
		t.Fatalf("a failed encode wrote %d times: %q", w.writes, w.Body.String())
	}
}

// TestStatsFrameAllocs pins what writing a 40-item stats frame allocates
// beyond building its snapshot, once the frame pool is warm. The ceiling
// holds for normal builds, not under the race detector (see internal/race).
func TestStatsFrameAllocs(t *testing.T) {
	s := liveClass(t, fortyItems(), 60, 60)
	seq, _ := s.live.Seq("ex")
	w := &discardWriter{h: http.Header{}}
	frame := func() {
		var last uint64
		sent := false
		if wrote, ok := s.tryStats(w, "ex", seq, &last, &sent); !wrote || !ok {
			t.Fatalf("tryStats = (%v, %v), want a frame", wrote, ok)
		}
	}
	snapshot := func() {
		if _, ok := s.live.Snapshot("ex"); !ok {
			t.Fatal("no snapshot")
		}
	}
	frame() // warm the frame pool
	kbPer := func(f func()) float64 {
		const runs = 100
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	}
	frameKB, snapKB := kbPer(frame), kbPer(snapshot)
	t.Logf("stats frame of 40 items: %.2f KB, of which the snapshot %.2f KB; the write %.2f KB (ceiling %.2f KB)",
		frameKB, snapKB, frameKB-snapKB, statsWriteKBCeiling)
	if frameKB-snapKB > statsWriteKBCeiling && !race.Enabled {
		t.Errorf("writing a stats frame allocates %.2f KB beyond its snapshot, ceiling %.2f KB",
			frameKB-snapKB, statsWriteKBCeiling)
	}
}
