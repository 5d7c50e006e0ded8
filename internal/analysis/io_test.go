package analysis

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mineassess/internal/item"
)

func TestResultJSONRoundTrip(t *testing.T) {
	e := workedClassExam(t)
	var buf bytes.Buffer
	if err := WriteResult(&buf, e); err != nil {
		t.Fatalf("WriteResult: %v", err)
	}
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatalf("ReadResult: %v", err)
	}
	if back.ExamID != e.ExamID || len(back.Students) != len(e.Students) ||
		len(back.Problems) != len(e.Problems) {
		t.Fatalf("shape changed: %s %d %d", back.ExamID, len(back.Students), len(back.Problems))
	}
	// Deep equality on a sample student.
	if !reflect.DeepEqual(back.Students[0], e.Students[0]) {
		t.Errorf("student row changed:\n%+v\n%+v", back.Students[0], e.Students[0])
	}
	// The reloaded result analyzes to the same worked values.
	a, err := Analyze(back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q2 := a.Question("no2")
	almost(t, "reloaded q2.D", q2.D, 0.55, 0.005)
}

func TestSaveLoadResultFile(t *testing.T) {
	e := workedClassExam(t)
	path := filepath.Join(t.TempDir(), "sitting.json")
	if err := SaveResult(path, e); err != nil {
		t.Fatalf("SaveResult: %v", err)
	}
	back, err := LoadResult(path)
	if err != nil {
		t.Fatalf("LoadResult: %v", err)
	}
	if back.ExamID != e.ExamID {
		t.Errorf("exam ID = %q", back.ExamID)
	}
	if _, err := LoadResult(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestWriteResultRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResult(&buf, &ExamResult{}); err == nil {
		t.Error("invalid result should not serialize")
	}
}

func TestReadResultRejectsGarbageAndInvalid(t *testing.T) {
	if _, err := ReadResult(strings.NewReader("{nope")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadResult(strings.NewReader("{}")); err == nil {
		t.Error("empty result should fail validation")
	}
}

// htmlResult is a one-student result whose exam, problem and response text
// hold the characters encoding/json escapes by default.
func htmlResult(t testing.TB) *ExamResult {
	t.Helper()
	p, err := item.NewMultipleChoice("p<1>&", "Is 1 < 2 && 3 > 2?",
		[]string{"<yes>", "no & never"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &ExamResult{ExamID: "exam<&>", Problems: []*item.Problem{p},
		Students: []StudentResult{{StudentID: "s<1>", Responses: []Response{{
			StudentID: "s<1>", ProblemID: p.ID, Option: "<A&>", Credit: 1,
			Answered: true, TimeSpent: time.Second,
		}}}}}
}

// smallResult is the worked class cut to three students and the three
// problems their first responses answer.
func smallResult(t testing.TB) *ExamResult {
	e := workedClassExam(t)
	e.Problems = e.Problems[:3]
	e.Students = e.Students[:3]
	for i := range e.Students {
		e.Students[i].Responses = e.Students[i].Responses[:3]
	}
	return e
}

// TestEncodeResultMatchesEncoder: EncodeResult writes the bytes
// json.NewEncoder(w).Encode writes, for a class larger than its flush size,
// with and without a time limit, with no ended sitting or no problems, for
// text encoding/json escapes, and for a student too large for the buffer
// it reuses.
func TestEncodeResultMatchesEncoder(t *testing.T) {
	timed := workedClassExam(t)
	timed.TestTime = 10 * time.Minute
	negative := smallResult(t)
	negative.TestTime = -time.Second
	noRows := smallResult(t)
	noRows.Students[1].Responses = nil
	// One student larger than the buffer EncodeResult keeps for reuse.
	hugeStudent := smallResult(t)
	hugeStudent.Students[0].Responses[0].Option = strings.Repeat("x", 2*encodeKeepBytes)
	cases := map[string]*ExamResult{
		"worked class":     workedClassExam(t),
		"teacher class":    teacherClass(t, 250, 40, 1),
		"time limit":       timed,
		"negative limit":   negative,
		"no ended sitting": {ExamID: "e", Problems: timed.Problems, TestTime: time.Hour},
		"no students":      {ExamID: "e", Problems: timed.Problems, Students: []StudentResult{}},
		"nil responses":    noRows,
		"escaped text":     htmlResult(t),
		"huge student":     hugeStudent,
		"zero":             {},
	}
	for name, e := range cases {
		var want, got bytes.Buffer
		if err := json.NewEncoder(&want).Encode(e); err != nil {
			t.Fatal(err)
		}
		if err := EncodeResult(&got, e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: EncodeResult wrote\n%s\nencoding/json writes\n%s", name, got.Bytes(), want.Bytes())
		}
	}
}

// writeSizes records the size of every write.
type writeSizes []int

func (w *writeSizes) Write(p []byte) (int, error) {
	*w = append(*w, len(p))
	return len(p), nil
}

// TestEncodeResultStreams: a 250 x 40 export (~1.1 MB) reaches the writer
// in pieces of a few students, never as one buffer holding the export.
func TestEncodeResultStreams(t *testing.T) {
	var w writeSizes
	if err := EncodeResult(&w, teacherClass(t, 250, 40, 1)); err != nil {
		t.Fatal(err)
	}
	total, largest := 0, 0
	for _, n := range w {
		total += n
		largest = max(largest, n)
	}
	if largest > 2*encodeFlushBytes || len(w) < total/(2*encodeFlushBytes) {
		t.Errorf("%d bytes written in %d writes, the largest %d; want writes of at most %d",
			total, len(w), largest, 2*encodeFlushBytes)
	}
}

// TestDecodeResultRoundTrip: DecodeResult reads EncodeResult's and
// WriteResult's output back to the result, each student's responses in a
// list sized to the problem list.
func TestDecodeResultRoundTrip(t *testing.T) {
	e := teacherClass(t, 250, 40, 1)
	var compact, indented bytes.Buffer
	if err := EncodeResult(&compact, e); err != nil {
		t.Fatal(err)
	}
	if err := WriteResult(&indented, e); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string]*bytes.Buffer{"compact": &compact, "indented": &indented} {
		got, err := DecodeResult(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("%s: decoded result differs from the encoded one", name)
		}
		for _, s := range got.Students {
			if cap(s.Responses) != len(got.Problems) {
				t.Fatalf("%s: %s's responses have capacity %d, want %d",
					name, s.StudentID, cap(s.Responses), len(got.Problems))
			}
		}
	}
}

// TestDecodeResultBoundsPresizing: response lists are sized from the
// problem list only as far as the students before them filled theirs, so a
// small input of many problems and many one-response students costs about
// what encoding/json's decode costs, not problems x students.
func TestDecodeResultBoundsPresizing(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"problems":[{}` + strings.Repeat(`,{}`, 499) + `],"students":[`)
	b.WriteString(`{"responses":[{}]}` + strings.Repeat(`,{"responses":[{}]}`, 999) + `]}`)
	in := b.String()
	allocated := func(decode func() error) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := decode(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	want := allocated(func() error {
		var e ExamResult
		return json.NewDecoder(strings.NewReader(in)).Decode(&e)
	})
	got := allocated(func() error {
		_, err := DecodeResult(strings.NewReader(in))
		return err
	})
	if got > 2*want {
		t.Errorf("a %d-byte input of 500 problems and 1,000 one-response students: DecodeResult allocates %d KB, encoding/json %d KB",
			len(in), got>>10, want>>10)
	}
}

// FuzzDecodeResult: for any input, DecodeResult and encoding/json's
// Decode into an ExamResult agree on whether it fails, and on the value
// when neither fails.
func FuzzDecodeResult(f *testing.F) {
	small := smallResult(f)
	var indented, compact bytes.Buffer
	if err := WriteResult(&indented, small); err != nil {
		f.Fatal(err)
	}
	if err := EncodeResult(&compact, small); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		indented.String(),
		compact.String(),
		`null`,
		`{"examId":"e","problems":[{"id":"p1"}],"students":null}`,
		// Students before problems.
		`{"students":[{"studentId":"s1","responses":[{"problemId":"p1","credit":1,"answered":true}]}],"problems":[{"id":"p1"}]}`,
		// Unknown keys, at the top and in a student.
		`{"examId":"e","extra":{"a":[1,2,{"b":null}]},"problems":[],"students":[{"studentId":"s1","grade":"A","responses":[]}],"more":"x"}`,
		// Keys in another letter case.
		`{"EXAMID":"e","Problems":[{"ID":"p1"}],"STUDENTS":[{"StudentId":"s1","RESPONSES":[{"ProblemID":"p1"}]}],"TestTimeNanos":5,"ſtudents":[]}`,
		// Repeated keys: later arrays decode into the earlier elements.
		`{"problems":[{"id":"p1"}],"students":[{"studentId":"a","responses":[{"problemId":"p1"},{"problemId":"p2"}]},{"studentId":"b"}],"students":[{"responses":[{"credit":1}]}],"students":[{},{}],"examId":"x","examId":null}`,
		// A response list longer than the problem list, and students with
		// no, null or empty lists, or null.
		`{"problems":[{"id":"p1"}],"students":[{"studentId":"s1","responses":[{"problemId":"p1"},{"problemId":"p2"},{"problemId":"p3"}]},{"studentId":"s2"},{"studentId":"s3","responses":null},{"studentId":"s4","responses":[]},null]}`,
		// Failures: none, not an object, wrong types, cut short, bad syntax.
		``, `[]`, `"x"`, `{"students":{}}`, `{"students":[1]}`, `{"testTimeNanos":1.5}`,
		`{"examId":"x"`, `{"students":[{"studentId":"a"},]}`, `{"a":1 "b":2}`, `{"examId":"x"} trailing`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want ExamResult
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		got, err := DecodeResult(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeResult error %v, encoding/json error %v, input %q", err, wantErr, data)
		}
		if err == nil && !reflect.DeepEqual(*got, want) {
			t.Fatalf("DecodeResult = %+v, encoding/json = %+v, input %q", *got, want, data)
		}
	})
}

// FuzzReadResult: for any input, ReadResult either fails or returns a
// result that passes Validate again; it never panics.
func FuzzReadResult(f *testing.F) {
	var compact bytes.Buffer
	if err := EncodeResult(&compact, smallResult(f)); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		compact.String(),
		`{"problems":[null],"students":[{}]}`,
		`{"problems":[{"id":"p1"},null],"students":[null]}`,
		`{"problems":[{"id":"p1"},{"id":"p1"}],"students":[{}]}`,
		`{"problems":[{"id":"p1"}],"students":[{"responses":[{"problemId":"p2"}]}]}`,
		`{"problems":[{"id":"p1"}],"students":[{"responses":[{"problemId":"p1","credit":1.5}]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ReadResult(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("ReadResult accepted %q, which then fails Validate: %v", data, err)
		}
	})
}
