// Package span keeps the benchmark's trace spans in memory. The load
// generator records one span per SDK call; the traced server records its
// handler and bank calls. Spans of one request share the request ID the
// client sent as X-Request-ID, and carry wall-clock Unix nanoseconds so spans
// from the two processes line up on one time axis.
package span

import (
	"sync"
	"time"
)

// Span is one timed call.
type Span struct {
	Name  string `json:"n"`
	ReqID string `json:"r"`
	Start int64  `json:"s"`
	End   int64  `json:"e"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder collects spans; safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records a span that ran from start until now.
func (r *Recorder) Add(name, reqID string, start time.Time) {
	s := Span{Name: name, ReqID: reqID, Start: start.UnixNano(), End: time.Now().UnixNano()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}
