package bank

// Binary WAL codec: a positional encoding of walRecord inside a
// walcodec frame, selected by wal.CodecBinary in Options.Codec /
// JournalOptions.Codec. The JSON codec (the default, and the only format
// before the codec option existed) writes one JSON object per line; the
// binary codec writes compact
// frames that skip the per-mutation json.Marshal on the commit path. Replay
// detects the format per record (a frame can never start with '{'), so a
// JSON-era WAL reopened under the binary codec — or the reverse — replays
// unchanged, with new records appended in the journal's configured format.
//
// The payload layout is strictly positional (see encodeWALBinary); the
// frame's version byte guards layout changes. Collections encode their
// element count first; a zero count decodes to nil, matching what a JSON
// round-trip of an omitempty field produces.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
	"mineassess/internal/walcodec"
)

// Binary op codes, fixed for the life of frame version 1.
var opCodes = map[string]byte{
	opAddProblem:     1,
	opUpdateProblem:  2,
	opDeleteProblem:  3,
	opAddExam:        4,
	opUpdateExam:     5,
	opDeleteExam:     6,
	opRollback:       7,
	opPutAdaptive:    8,
	opDeleteAdaptive: 9,
}

var opNames = func() map[byte]string {
	m := make(map[byte]string, len(opCodes))
	for name, code := range opCodes {
		m[code] = name
	}
	return m
}()

// encodeWALBinary appends rec as one framed binary record to dst.
//
//assess:hotpath
func encodeWALBinary(dst []byte, rec *walRecord) ([]byte, error) {
	code, ok := opCodes[rec.Op]
	if !ok {
		//assess:allow hotpathalloc: unknown-op error path, cold by construction
		return dst, fmt.Errorf("bank: cannot binary-encode unknown op %q", rec.Op)
	}
	start := len(dst)
	b := walcodec.BeginFrame(dst)
	b = appendUvarint(b, uint64(code))
	b = appendVarint(b, rec.Epoch)
	b = walcodec.AppendString(b, rec.ID)
	b = walcodec.AppendBool(b, rec.Problem != nil)
	if rec.Problem != nil {
		b = appendProblem(b, rec.Problem)
	}
	b = walcodec.AppendBool(b, rec.Exam != nil)
	if rec.Exam != nil {
		b = appendExam(b, rec.Exam)
	}
	b = walcodec.AppendBool(b, rec.Session != nil)
	if rec.Session != nil {
		b = appendAdaptive(b, rec.Session)
	}
	return walcodec.EndFrame(b, start), nil
}

// decodeWALBinary decodes one frame payload produced by encodeWALBinary.
func decodeWALBinary(payload []byte) (walRecord, error) {
	r := walcodec.NewReader(payload)
	var rec walRecord
	if r.Len() < 1 {
		return rec, fmt.Errorf("bank: empty wal frame")
	}
	code := byte(r.Uvarint())
	name, ok := opNames[code]
	if !ok {
		return rec, fmt.Errorf("bank: unknown wal op code %d", code)
	}
	rec.Op = name
	rec.Epoch = r.Varint()
	rec.ID = r.String()
	if r.Bool() {
		rec.Problem = readProblem(r)
	}
	if r.Bool() {
		rec.Exam = readExam(r)
	}
	if r.Bool() {
		rec.Session = readAdaptive(r)
	}
	if err := r.Err(); err != nil {
		return walRecord{}, fmt.Errorf("bank: decode wal frame: %w", err)
	}
	return rec, nil
}

func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendProblem(b []byte, p *item.Problem) []byte {
	b = walcodec.AppendString(b, p.ID)
	b = appendVarint(b, int64(p.Style))
	b = walcodec.AppendString(b, p.Subject)
	b = walcodec.AppendString(b, p.ConceptID)
	b = appendVarint(b, int64(p.Level))
	b = walcodec.AppendString(b, p.Question)
	b = walcodec.AppendString(b, p.Hint)
	b = appendUvarint(b, uint64(len(p.Options)))
	for _, o := range p.Options {
		b = walcodec.AppendString(b, o.Key)
		b = walcodec.AppendString(b, o.Text)
	}
	b = walcodec.AppendString(b, p.Answer)
	b = appendUvarint(b, uint64(len(p.Blanks)))
	for _, blank := range p.Blanks {
		b = walcodec.AppendStrings(b, blank)
	}
	b = appendUvarint(b, uint64(len(p.Pairs)))
	for _, pair := range p.Pairs {
		b = walcodec.AppendString(b, pair.Left)
		b = walcodec.AppendString(b, pair.Right)
	}
	b = walcodec.AppendBool(b, p.Resumable)
	b = appendUvarint(b, uint64(len(p.Pictures)))
	for _, pic := range p.Pictures {
		b = walcodec.AppendString(b, pic.Ref)
		b = appendVarint(b, int64(pic.X))
		b = appendVarint(b, int64(pic.Y))
	}
	b = walcodec.AppendString(b, p.TemplateID)
	b = walcodec.AppendFloat64(b, p.Points)
	b = walcodec.AppendFloat64(b, p.Difficulty)
	b = walcodec.AppendFloat64(b, p.Discrimination)
	b = walcodec.AppendStrings(b, p.Keywords)
	return b
}

func readProblem(r *walcodec.Reader) *item.Problem {
	p := &item.Problem{}
	p.ID = r.String()
	p.Style = item.Style(r.Int())
	p.Subject = r.String()
	p.ConceptID = r.String()
	p.Level = cognition.Level(r.Int())
	p.Question = r.String()
	p.Hint = r.String()
	if n := r.Uvarint(); n > 0 && r.Err() == nil {
		p.Options = make([]item.Option, n)
		for i := range p.Options {
			p.Options[i].Key = r.String()
			p.Options[i].Text = r.String()
		}
	}
	p.Answer = r.String()
	if n := r.Uvarint(); n > 0 && r.Err() == nil {
		p.Blanks = make([][]string, n)
		for i := range p.Blanks {
			p.Blanks[i] = r.Strings()
		}
	}
	if n := r.Uvarint(); n > 0 && r.Err() == nil {
		p.Pairs = make([]item.MatchPair, n)
		for i := range p.Pairs {
			p.Pairs[i].Left = r.String()
			p.Pairs[i].Right = r.String()
		}
	}
	p.Resumable = r.Bool()
	if n := r.Uvarint(); n > 0 && r.Err() == nil {
		p.Pictures = make([]item.Picture, n)
		for i := range p.Pictures {
			p.Pictures[i].Ref = r.String()
			p.Pictures[i].X = r.Int()
			p.Pictures[i].Y = r.Int()
		}
	}
	p.TemplateID = r.String()
	p.Points = r.Float64()
	p.Difficulty = r.Float64()
	p.Discrimination = r.Float64()
	p.Keywords = r.Strings()
	return p
}

func appendExam(b []byte, e *ExamRecord) []byte {
	b = walcodec.AppendString(b, e.ID)
	b = walcodec.AppendString(b, e.Title)
	b = walcodec.AppendStrings(b, e.ProblemIDs)
	b = appendVarint(b, int64(e.Display))
	b = appendVarint(b, int64(e.TestTimeSeconds))
	b = appendUvarint(b, uint64(len(e.Groups)))
	for _, g := range e.Groups {
		b = walcodec.AppendString(b, g.Name)
		b = walcodec.AppendStrings(b, g.ProblemIDs)
	}
	b = appendUvarint(b, uint64(len(e.ItemParams)))
	if len(e.ItemParams) > 0 {
		// Sorted keys keep the encoding deterministic for a given record.
		keys := make([]string, 0, len(e.ItemParams))
		for k := range e.ItemParams {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			params := e.ItemParams[k]
			b = walcodec.AppendString(b, k)
			b = walcodec.AppendFloat64(b, params.A)
			b = walcodec.AppendFloat64(b, params.B)
			b = walcodec.AppendFloat64(b, params.C)
		}
	}
	return b
}

func readExam(r *walcodec.Reader) *ExamRecord {
	e := &ExamRecord{}
	e.ID = r.String()
	e.Title = r.String()
	e.ProblemIDs = r.Strings()
	e.Display = item.DisplayOrder(r.Int())
	e.TestTimeSeconds = r.Int()
	if n := r.Uvarint(); n > 0 && r.Err() == nil {
		e.Groups = make([]ExamGroup, n)
		for i := range e.Groups {
			e.Groups[i].Name = r.String()
			e.Groups[i].ProblemIDs = r.Strings()
		}
	}
	if n := r.Uvarint(); n > 0 && r.Err() == nil {
		e.ItemParams = make(map[string]simulate.IRTParams, n)
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			k := r.String()
			e.ItemParams[k] = simulate.IRTParams{
				A: r.Float64(), B: r.Float64(), C: r.Float64(),
			}
		}
	}
	return e
}

func appendAdaptive(b []byte, s *AdaptiveSessionRecord) []byte {
	b = walcodec.AppendString(b, s.ID)
	b = walcodec.AppendString(b, s.ExamID)
	b = walcodec.AppendString(b, s.StudentID)
	b = appendVarint(b, s.Seed)
	b = appendVarint(b, int64(s.MaxItems))
	b = appendVarint(b, int64(s.MinItems))
	b = walcodec.AppendFloat64(b, s.TargetSE)
	b = walcodec.AppendString(b, s.Selector)
	b = appendVarint(b, int64(s.RandomesqueK))
	b = walcodec.AppendFloat64(b, s.MaxExposure)
	b = walcodec.AppendString(b, s.PendingID)
	b = walcodec.AppendStrings(b, s.Administered)
	b = appendUvarint(b, uint64(len(s.Correct)))
	for _, c := range s.Correct {
		b = walcodec.AppendBool(b, c)
	}
	b = walcodec.AppendFloat64(b, s.Theta)
	b = walcodec.AppendFloat64(b, s.SE)
	b = walcodec.AppendString(b, s.State)
	b = walcodec.AppendString(b, s.StopReason)
	return b
}

func readAdaptive(r *walcodec.Reader) *AdaptiveSessionRecord {
	s := &AdaptiveSessionRecord{}
	s.ID = r.String()
	s.ExamID = r.String()
	s.StudentID = r.String()
	s.Seed = r.Varint()
	s.MaxItems = r.Int()
	s.MinItems = r.Int()
	s.TargetSE = r.Float64()
	s.Selector = r.String()
	s.RandomesqueK = r.Int()
	s.MaxExposure = r.Float64()
	s.PendingID = r.String()
	s.Administered = r.Strings()
	if n := r.Uvarint(); n > 0 && r.Err() == nil {
		s.Correct = make([]bool, n)
		for i := range s.Correct {
			s.Correct[i] = r.Bool()
		}
	}
	s.Theta = r.Float64()
	s.SE = r.Float64()
	s.State = r.String()
	s.StopReason = r.String()
	return s
}
