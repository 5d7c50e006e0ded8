package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Result persistence: sittings are written as JSON so analyses can be rerun
// later (or on another machine) without re-administering the exam. The
// format is the ExamResult structure itself; problems travel with the
// responses so a result file is self-contained. The server's results export
// is the same format, compact: EncodeResult writes it and DecodeResult
// reads it (and result files), each one student at a time.

// encodeFlushBytes is how much EncodeResult gathers before it writes: a few
// students' rows, so the writer sees few large writes and the buffer stays
// the same size however large the class is.
const encodeFlushBytes = 32 << 10

// encodeBufs lends EncodeResult its buffer, so an export allocates none. A
// buffer that a huge student grew past encodeKeepBytes goes to the
// collector instead, so the pool holds only buffers of about the size every
// export needs.
var encodeBufs = sync.Pool{New: func() any {
	return bytes.NewBuffer(make([]byte, 0, 2*encodeFlushBytes))
}}

const encodeKeepBytes = 4 * 2 * encodeFlushBytes

// EncodeResult writes exactly the bytes json.NewEncoder(w).Encode(e) writes,
// but encodes one student at a time into one reused buffer and writes it on
// every encodeFlushBytes, so no buffer ever holds the whole result. What it
// wrote before an error stays written.
func EncodeResult(w io.Writer, e *ExamResult) error {
	buf := encodeBufs.Get().(*bytes.Buffer)
	defer releaseEncodeBuf(buf)
	enc := json.NewEncoder(buf)
	// put appends v's encoding without the newline Encode ends it with,
	// and writes the buffer on once it passes encodeFlushBytes.
	put := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("analysis: encode result: %w", err)
		}
		buf.Truncate(buf.Len() - 1)
		if buf.Len() < encodeFlushBytes {
			return nil
		}
		_, err := w.Write(buf.Bytes())
		buf.Reset()
		return err
	}
	buf.WriteString(`{"examId":`)
	if err := put(&e.ExamID); err != nil {
		return err
	}
	buf.WriteString(`,"problems":`)
	if err := put(&e.Problems); err != nil {
		return err
	}
	buf.WriteString(`,"students":`)
	if e.Students == nil {
		buf.WriteString("null")
	} else {
		buf.WriteByte('[')
		for i := range e.Students {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := put(&e.Students[i]); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	}
	if e.TestTime != 0 {
		buf.WriteString(`,"testTimeNanos":`)
		buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(e.TestTime), 10))
	}
	buf.WriteString("}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// releaseEncodeBuf returns an EncodeResult buffer to the pool, unless it
// grew past encodeKeepBytes.
func releaseEncodeBuf(buf *bytes.Buffer) {
	if buf.Cap() > encodeKeepBytes {
		return
	}
	buf.Reset()
	encodeBufs.Put(buf)
}

// DecodeResult reads the value json.NewDecoder(r).Decode(&ExamResult{})
// reads, into the same result, and fails where that fails. It walks the
// top-level object token by token and decodes each student on its own, so
// the decoder's buffer holds one student rather than the whole value, and a
// student that follows the problem list gets a response list sized to it
// (see decodeStudents). One difference is out of reach: encoding/json
// counts its nesting limit from the top of the value, DecodeResult from
// the field or student it decodes. It does not validate; ReadResult does.
func DecodeResult(r io.Reader) (*ExamResult, error) {
	dec := json.NewDecoder(r)
	e := &ExamResult{}
	switch tok, err := dec.Token(); {
	case err != nil:
		return nil, err
	case tok == nil: // null decodes to the zero result
		return e, nil
	case tok != json.Delim('{'):
		return nil, fmt.Errorf("analysis: result is %v, not an object", tok)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		// Keys match fields as encoding/json matches them: exactly, or
		// else under Unicode case folding.
		switch key, _ := tok.(string); {
		case strings.EqualFold(key, "examId"):
			err = dec.Decode(&e.ExamID)
		case strings.EqualFold(key, "problems"):
			err = dec.Decode(&e.Problems)
		case strings.EqualFold(key, "students"):
			err = decodeStudents(dec, e)
		case strings.EqualFold(key, "testTimeNanos"):
			err = dec.Decode(&e.TestTime)
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := dec.Token(); err != nil {
		return nil, err
	}
	return e, nil
}

// decodeStudents reads the students array into e.Students one student per
// Decode, the way encoding/json fills a slice: a repeated key's array
// decodes into the elements the earlier one left, and an empty array is an
// empty slice. A new student's responses start at the problem list's
// length, or at the previous student's when that is shorter: in an export
// every student answers the whole list, and the bound keeps a small input
// of many problems and many short students from allocating problems x
// students.
func decodeStudents(dec *json.Decoder, e *ExamResult) error {
	switch tok, err := dec.Token(); {
	case err != nil:
		return err
	case tok == nil:
		e.Students = nil
		return nil
	case tok != json.Delim('['):
		return fmt.Errorf("analysis: students is %v, not an array", tok)
	}
	n, size := 0, len(e.Problems)
	for ; dec.More(); n++ {
		if n < cap(e.Students) {
			e.Students = e.Students[:n+1]
		} else {
			e.Students = append(e.Students, StudentResult{})
		}
		s := &e.Students[n]
		sized := s.Responses == nil && size > 0
		if sized {
			s.Responses = make([]Response, 0, size)
		}
		if err := dec.Decode(s); err != nil {
			return err
		}
		if sized && len(s.Responses) == 0 && cap(s.Responses) > 0 {
			// Still the list made above, so the student named no
			// responses: encoding/json leaves that nil (an empty or
			// null list would have replaced it).
			s.Responses = nil
		}
		size = min(len(e.Problems), len(s.Responses))
	}
	if _, err := dec.Token(); err != nil {
		return err
	}
	if n == 0 {
		e.Students = []StudentResult{}
	}
	return nil
}

// WriteResult streams the result as indented JSON.
func WriteResult(w io.Writer, e *ExamResult) error {
	if err := e.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		return fmt.Errorf("analysis: encode result: %w", err)
	}
	return nil
}

// ReadResult decodes (DecodeResult) and validates a result produced by
// WriteResult or by the server's export.
func ReadResult(r io.Reader) (*ExamResult, error) {
	e, err := DecodeResult(r)
	if err != nil {
		return nil, fmt.Errorf("analysis: decode result: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// SaveResult writes the result to a file.
func SaveResult(path string, e *ExamResult) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("analysis: create %s: %w", path, err)
	}
	if err := WriteResult(f, e); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("analysis: close %s: %w", path, err)
	}
	return nil
}

// LoadResult reads a result file.
func LoadResult(path string) (*ExamResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("analysis: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadResult(f)
}
