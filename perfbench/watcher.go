package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mineassess/pkg/client"
)

// frame is one event frame the watcher received.
type frame struct {
	typ     string
	session string
	problem string
	at      time.Time
}

// watcher is the SSE client on the fixed exam's live stream.
type watcher struct {
	stream *client.EventStream
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	frames []frame
	stats  int
	gaps   int

	sittings []*fixedSitting // every sitting the window plans, for correlation
}

func startWatcher(ctx context.Context, base string) (*watcher, error) {
	ctx, cancel := context.WithCancel(ctx)
	st, err := client.New(base).StreamExamLive(ctx, fixedExamID, "")
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe to live stream: %w", err)
	}
	w := &watcher{stream: st, cancel: cancel, done: make(chan struct{})}
	go w.read()
	return w, nil
}

func (w *watcher) read() {
	defer close(w.done)
	for {
		// The stream ends when stop cancels it; a frame lost to an earlier
		// end or a bad payload shows up as a missed session.finished.
		f, err := w.stream.Next()
		at := time.Now()
		if err != nil {
			return
		}
		w.mu.Lock()
		switch {
		case f.IsGap():
			w.gaps++
		case f.IsStats():
			w.stats++
		default:
			if ev, err := f.DecodeEvent(); err == nil {
				w.frames = append(w.frames, frame{typ: string(ev.Type), session: ev.SessionID, problem: ev.ProblemID, at: at})
			}
		}
		w.mu.Unlock()
	}
}

func (w *watcher) expect(s *fixedSitting) { w.sittings = append(w.sittings, s) }

// missing lists the sessions among ids without a session.finished frame.
func (w *watcher) missing(ids []string) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	seen := make(map[string]bool, len(ids))
	for _, f := range w.frames {
		if f.typ == "session.finished" {
			seen[f.session] = true
		}
	}
	var out []string
	for _, id := range ids {
		if !seen[id] {
			out = append(out, id)
		}
	}
	return out
}

// await waits until every listed session's finish frame has arrived, or the
// timeout passes.
func (w *watcher) await(ids []string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for len(w.missing(ids)) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
}

func (w *watcher) stop() {
	w.cancel()
	w.stream.Close()
	<-w.done
}

// deliveries returns, per event frame, the time from the send of the
// request that caused the event to the frame's arrival, in milliseconds.
func (w *watcher) deliveries() []float64 {
	bySession := make(map[string]*fixedSitting, len(w.sittings))
	for _, s := range w.sittings {
		if s.id != "" {
			bySession[s.id] = s
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []float64
	for _, f := range w.frames {
		s := bySession[f.session]
		if s == nil {
			continue
		}
		var sent time.Time
		switch f.typ {
		case "session.started":
			sent = s.sent["start"]
		case "response.submitted":
			sent = s.sent[f.problem]
		case "session.finished":
			sent = s.sent["finish"]
		}
		if !sent.IsZero() {
			out = append(out, ms(f.at.Sub(sent)))
		}
	}
	return out
}
