package client

// In-package fuzz coverage for the SSE frame parser: EventStream's fields
// are unexported, so the harness builds one directly around an in-memory
// body, exactly as c.stream does around a response body.

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// streamOver reads data through a bufio.Reader of the given size.
func streamOver(data []byte, size int) *EventStream {
	r := bytes.NewReader(data)
	return &EventStream{
		ctx:  context.Background(),
		body: io.NopCloser(r),
		br:   bufio.NewReaderSize(r, size),
	}
}

// refStream is the reference parser EventStream.Next is checked against:
// it reads each line whole with ReadString, splits it on bare CRs into
// strings, and joins a frame's data lines with strings.Join.
type refStream struct {
	br      *bufio.Reader
	pending []string
}

func (s *refStream) next() (*StreamFrame, error) {
	f := &StreamFrame{}
	var data []string
	for {
		line, err := s.readLine()
		if err != nil {
			if err == io.EOF && len(data) == 0 {
				return nil, io.EOF
			}
			return nil, err
		}
		switch {
		case line == "":
			if f.Event == "" && len(data) == 0 {
				continue
			}
			f.Data = []byte(strings.Join(data, "\n"))
			return f, nil
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "event:"):
			f.Event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "id:"):
			f.ID = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
}

func (s *refStream) readLine() (string, error) {
	if len(s.pending) > 0 {
		line := s.pending[0]
		s.pending = s.pending[1:]
		return line, nil
	}
	raw, err := s.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	raw = strings.TrimSuffix(raw, "\n")
	raw = strings.TrimSuffix(raw, "\r")
	parts := strings.Split(raw, "\r")
	s.pending = parts[1:]
	return parts[0], nil
}

// readAll reads frames until the first error. It fails the test on a
// parser that does not terminate: a finite input yields finitely many
// frames.
func readAll(t *testing.T, next func() (*StreamFrame, error), inputLen int) ([]*StreamFrame, error) {
	t.Helper()
	var frames []*StreamFrame
	for {
		if len(frames) > inputLen+2 {
			t.Fatalf("parser failed to terminate after %d frames on %d input bytes", len(frames), inputLen)
		}
		f, err := next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

func FuzzEventStreamNext(f *testing.F) {
	f.Add([]byte("id: 7\nevent: session.answered\ndata: {\"seq\":7}\n\n"))
	f.Add([]byte("event: stats\ndata: {\"answered\":1}\ndata: {\"more\":2}\n\n"))
	f.Add([]byte(": keep-alive\n\n: another\n\nid: 1\ndata: x\n\n"))
	f.Add([]byte("id: 3\r\nevent: gap\r\ndata: {}\r\n\r\n"))
	f.Add([]byte("data only, no frame separator"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("id:\nevent:\ndata:\n\n"))
	f.Add([]byte("event: stats\ndata: {\"p\":\"" + strings.Repeat("x", 5000) + "\"}\n\nid: 2\ndata: after\n\n"))
	f.Add([]byte("event: a\rid: 4\rdata: 1\rdata: 2\r\rdata: 3\r\r\n"))
	f.Add([]byte("id: 5\r\nevent: b\r\ndata: {}\r\n\r\nevent: c\r\r\ndata: x\r\n\r\n"))
	f.Add([]byte("id: 6\nevent: cut\ndata: {\"never\":\"ends\"}\n"))
	f.Add([]byte("id: 8\n\ndata: the id carries\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ref := &refStream{br: bufio.NewReader(bytes.NewReader(data))}
		want, wantErr := readAll(t, ref.next, len(data))
		// The default buffer, and a 16-byte one that makes lines of short
		// inputs longer than the buffer.
		for _, size := range []int{4096, 16} {
			got, err := readAll(t, streamOver(data, size).Next, len(data))
			if err != io.EOF {
				t.Fatalf("%d-byte reader: non-EOF error from in-memory stream: %v", size, err)
			}
			if err != wantErr {
				t.Fatalf("%d-byte reader: final error %v, reference %v", size, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%d-byte reader: %d frames, reference %d", size, len(got), len(want))
			}
			// Every frame is compared after the last Next: a frame's Data
			// must survive the calls that follow it.
			for i, g := range got {
				w := want[i]
				if g.Data == nil {
					t.Fatalf("%d-byte reader: frame %d returned with nil Data", size, i)
				}
				if g.ID != w.ID || g.Event != w.Event || !bytes.Equal(g.Data, w.Data) {
					t.Fatalf("%d-byte reader: frame %d is {%q %q %q}, reference {%q %q %q}",
						size, i, g.ID, g.Event, g.Data, w.ID, w.Event, w.Data)
				}
				if strings.ContainsAny(g.ID, "\r\n") || strings.ContainsAny(g.Event, "\r\n") {
					t.Fatalf("field leaked line terminators: id=%q event=%q", g.ID, g.Event)
				}
			}
		}
	})
}
