package client

// SSE subscription support for the live event endpoints. Streams are
// context-driven: the caller owns a context whose cancellation tears the
// connection down promptly, even when the server has gone silent — which is
// why these methods bypass the SDK's default 30s whole-request timeout (it
// would kill a healthy long-lived stream) and bound the connection by ctx
// alone.
//
//	ctx, cancel := context.WithCancel(context.Background())
//	defer cancel()
//	stream, err := c.StreamExamLive(ctx, "midterm", "")
//	...
//	for {
//		f, err := stream.Next()
//		if err != nil { break } // io.EOF, ctx cancellation, or transport
//		switch {
//		case f.IsStats():
//			stats, _ := f.DecodeStats()
//		default:
//			ev, _ := f.DecodeEvent()
//			lastID = f.ID // resume token for the next StreamExamLive
//		}
//	}

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"mineassess/pkg/api"
)

// StreamFrame is one decoded SSE frame.
type StreamFrame struct {
	// ID is the frame's resume token ("" on gap and stats frames); pass the
	// last seen ID as lastEventID when reconnecting to receive only what
	// was missed.
	ID string
	// Event is the SSE event name: an api.EventType value, or
	// api.StatsEventName for statistics frames.
	Event string
	// Data is the frame's JSON payload: the caller's own copy, which Next
	// never reuses.
	Data []byte
}

// IsStats reports whether this is a live-statistics frame.
func (f *StreamFrame) IsStats() bool { return f.Event == api.StatsEventName }

// IsGap reports whether this frame marks dropped events.
func (f *StreamFrame) IsGap() bool { return f.Event == string(api.EventGap) }

// DecodeEvent unmarshals an event frame's payload.
func (f *StreamFrame) DecodeEvent() (*api.Event, error) {
	var e api.Event
	if err := json.Unmarshal(f.Data, &e); err != nil {
		return nil, fmt.Errorf("client: decode %s frame: %w", f.Event, err)
	}
	return &e, nil
}

// DecodeStats unmarshals a stats frame's payload.
func (f *StreamFrame) DecodeStats() (*api.ExamLiveStats, error) {
	var s api.ExamLiveStats
	if err := json.Unmarshal(f.Data, &s); err != nil {
		return nil, fmt.Errorf("client: decode stats frame: %w", err)
	}
	return &s, nil
}

// EventStream is one live SSE connection. Read frames with Next; Close (or
// cancel the context) to tear it down.
type EventStream struct {
	ctx  context.Context
	body io.ReadCloser
	br   *bufio.Reader
	// line joins a chunk longer than br's buffer; shorter chunks are read
	// in place.
	line []byte
	// rest is what follows the first bare CR of the chunk read last, and
	// split says it is there: the SSE spec terminates lines with CR, LF or
	// CRLF, so one LF-delimited chunk may hold several protocol lines. rest
	// points into br's buffer or line, which no read touches until it is
	// used up.
	rest  []byte
	split bool
	// data gathers the current frame's data lines; each frame gets its own
	// copy.
	data []byte
}

// StreamEvents subscribes to every event on the server
// (GET /v1/events:stream). lastEventID "" starts live; a previous frame's
// ID resumes with the missed events replayed first.
func (c *Client) StreamEvents(ctx context.Context, lastEventID string) (*EventStream, error) {
	return c.stream(ctx, "/v1/events:stream", lastEventID)
}

// StreamExamLive subscribes to one exam's events interleaved with live
// incremental item statistics (GET /v1/exams/{id}/live).
func (c *Client) StreamExamLive(ctx context.Context, examID, lastEventID string) (*EventStream, error) {
	return c.stream(ctx, "/v1/exams/"+url.PathEscape(examID)+"/live", lastEventID)
}

func (c *Client) stream(ctx context.Context, path, lastEventID string) (*EventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	if c.learnerID != "" {
		req.Header.Set("X-Learner-ID", c.learnerID)
	}
	// The configured client's Timeout would cut a healthy stream off
	// mid-exam; reuse its transport (proxies, TLS config) without it and
	// let ctx bound the connection instead.
	httpc := &http.Client{Transport: c.http.Transport}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: GET %s: %w", path, err)
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		return nil, decodeAPIError(resp)
	}
	return &EventStream{ctx: ctx, body: resp.Body, br: bufio.NewReader(resp.Body)}, nil
}

// Next blocks until the next frame arrives. It returns io.EOF when the
// server closes the stream, the context's error once it is cancelled, and
// skips keep-alive comments transparently.
func (s *EventStream) Next() (*StreamFrame, error) {
	f := &StreamFrame{}
	s.data = s.data[:0]
	dataLines := 0
	for {
		line, err := s.readLine()
		if err != nil {
			// Context cancellation surfaces as a closed-body read error;
			// report the cancellation itself, which is what the caller acts
			// on. A frame cut off by the error is dropped.
			if cerr := s.ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
		switch {
		case len(line) == 0:
			if f.Event == "" && dataLines == 0 {
				continue // stray separator / heartbeat boundary
			}
			f.Data = make([]byte, len(s.data))
			copy(f.Data, s.data)
			return f, nil
		case line[0] == ':':
			// keep-alive comment
		case bytes.HasPrefix(line, fieldEvent):
			f.Event = string(bytes.TrimSpace(line[len(fieldEvent):]))
		case bytes.HasPrefix(line, fieldID):
			f.ID = string(bytes.TrimSpace(line[len(fieldID):]))
		case bytes.HasPrefix(line, fieldData):
			if dataLines > 0 {
				s.data = append(s.data, '\n')
			}
			s.data = append(s.data, bytes.TrimSpace(line[len(fieldData):])...)
			dataLines++
		}
	}
}

var (
	fieldEvent = []byte("event:")
	fieldID    = []byte("id:")
	fieldData  = []byte("data:")
	cr         = []byte("\r")
)

// readLine returns the next SSE protocol line, valid until the next call.
// The spec accepts CR, LF and CRLF as terminators; reading LF-delimited
// chunks and splitting on the CRs inside keeps a stray "\r" out of the ID
// field — where it would otherwise travel back to the server inside the
// Last-Event-ID header on reconnect.
func (s *EventStream) readLine() ([]byte, error) {
	if !s.split {
		raw, err := s.readRaw()
		if err != nil {
			return nil, err
		}
		raw = raw[:len(raw)-1] // the '\n'
		s.rest = bytes.TrimSuffix(raw, cr)
	}
	line, rest, found := bytes.Cut(s.rest, cr)
	s.rest, s.split = rest, found
	return line, nil
}

// readRaw returns the next LF-terminated chunk, '\n' included. A chunk
// that fits br's buffer is returned in place; a longer one is joined in
// s.line. Either stays valid until the next read.
func (s *EventStream) readRaw() ([]byte, error) {
	raw, err := s.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return raw, err
	}
	s.line = append(s.line[:0], raw...)
	for {
		raw, err = s.br.ReadSlice('\n')
		s.line = append(s.line, raw...)
		if err != bufio.ErrBufferFull {
			return s.line, err
		}
	}
}

// Close releases the connection. Safe to call concurrently with a blocked
// Next, which will return with an error.
func (s *EventStream) Close() error { return s.body.Close() }
