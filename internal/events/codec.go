package events

// Binary codec for durable-log records: a positional encoding of Event
// inside a walcodec frame, selected by LogOptions.Codec. Replay detects the
// format per record (a frame cannot start with '{'), so a JSON-era event log
// reopened under the binary codec — or the reverse — replays unchanged, with
// new records appended in the configured format.

import (
	"encoding/binary"
	"fmt"
	"time"

	"mineassess/internal/walcodec"
)

// encodeEventBinary appends e as one framed binary record to dst.
//
//assess:hotpath
func encodeEventBinary(dst []byte, e *Event) []byte {
	start := len(dst)
	b := walcodec.BeginFrame(dst)
	b = binary.AppendUvarint(b, e.Seq)
	b = binary.AppendUvarint(b, e.GlobalSeq)
	b = walcodec.AppendString(b, string(e.Type))
	b = walcodec.AppendString(b, e.ExamID)
	b = walcodec.AppendString(b, e.SessionID)
	b = walcodec.AppendString(b, e.StudentID)
	b = walcodec.AppendString(b, e.ProblemID)
	b = walcodec.AppendStrings(b, e.Problems)
	b = walcodec.AppendBool(b, e.Correct)
	b = walcodec.AppendFloat64(b, e.Credit)
	b = binary.AppendVarint(b, int64(e.Answered))
	b = binary.AppendVarint(b, int64(e.Total))
	b = walcodec.AppendFloat64(b, e.Score)
	b = walcodec.AppendFloat64(b, e.MaxScore)
	b = walcodec.AppendFloat64(b, e.Theta)
	b = walcodec.AppendFloat64(b, e.SE)
	b = walcodec.AppendString(b, e.StopReason)
	b = binary.AppendVarint(b, int64(e.Dropped))
	hasAt := !e.At.IsZero()
	b = walcodec.AppendBool(b, hasAt)
	if hasAt {
		b = binary.AppendVarint(b, e.At.UnixNano())
	}
	return walcodec.EndFrame(b, start)
}

// decodeEventBinary decodes one frame payload produced by encodeEventBinary.
func decodeEventBinary(payload []byte) (Event, error) {
	r := walcodec.NewReader(payload)
	var e Event
	e.Seq = r.Uvarint()
	e.GlobalSeq = r.Uvarint()
	e.Type = Type(r.String())
	e.ExamID = r.String()
	e.SessionID = r.String()
	e.StudentID = r.String()
	e.ProblemID = r.String()
	e.Problems = r.Strings()
	e.Correct = r.Bool()
	e.Credit = r.Float64()
	e.Answered = r.Int()
	e.Total = r.Int()
	e.Score = r.Float64()
	e.MaxScore = r.Float64()
	e.Theta = r.Float64()
	e.SE = r.Float64()
	e.StopReason = r.String()
	e.Dropped = r.Int()
	if r.Bool() {
		e.At = time.Unix(0, r.Varint())
	}
	if err := r.Err(); err != nil {
		return Event{}, fmt.Errorf("events: decode log frame: %w", err)
	}
	return e, nil
}
