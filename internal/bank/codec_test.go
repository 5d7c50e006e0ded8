package bank

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
	"mineassess/internal/wal"
	"mineassess/internal/walcodec"
)

// codecProblem builds a problem exercising every encodable field.
func codecProblem() *item.Problem {
	return &item.Problem{
		ID:        "p-all",
		Style:     item.MultipleChoice,
		Subject:   "circuits",
		ConceptID: "ohms-law",
		Level:     cognition.Application,
		Question:  "What is V for I=2A through R=3Ω?",
		Hint:      "V = IR",
		Options: []item.Option{
			{Key: "A", Text: "6V"},
			{Key: "B", Text: "1.5V"},
		},
		Answer:         "A",
		Blanks:         [][]string{{"six", "6"}, {"volts"}},
		Pairs:          []item.MatchPair{{Left: "I", Right: "ampere"}, {Left: "V", Right: "volt"}},
		Resumable:      true,
		Pictures:       []item.Picture{{Ref: "figures/circuit.gif", X: 10, Y: -3}},
		TemplateID:     "two-column",
		Points:         2.5,
		Difficulty:     0.62,
		Discrimination: 0.41,
		Keywords:       []string{"ohm", "voltage"},
	}
}

func codecExam() *ExamRecord {
	return &ExamRecord{
		ID:              "e1",
		Title:           "Midterm",
		ProblemIDs:      []string{"p1", "p2"},
		Display:         item.DisplayOrder(1),
		TestTimeSeconds: 1800,
		Groups: []ExamGroup{
			{Name: "part A", ProblemIDs: []string{"p1"}},
			{Name: "part B", ProblemIDs: []string{"p2"}},
		},
		ItemParams: map[string]simulate.IRTParams{
			"p1": {A: 1.2, B: -0.4, C: 0.25},
			"p2": {A: 0.8, B: 1.1},
		},
	}
}

func codecSession() *AdaptiveSessionRecord {
	return &AdaptiveSessionRecord{
		ID: "s1", ExamID: "e1", StudentID: "stu-7", Seed: -42,
		MaxItems: 20, MinItems: 5, TargetSE: 0.3,
		Selector: "randomesque", RandomesqueK: 3, MaxExposure: 0.2,
		PendingID:    "p2",
		Administered: []string{"p1", "p3"},
		Correct:      []bool{true, false},
		Theta:        -0.7, SE: 0.45,
		State: AdaptiveStateActive, StopReason: "",
	}
}

// TestWALCodecRoundTrip frames representative records through the binary
// codec and decodes them back via the shared record reader, checking exact
// structural equality with what a JSON round-trip would produce.
func TestWALCodecRoundTrip(t *testing.T) {
	records := []walRecord{
		{Op: opAddProblem, Problem: codecProblem(), Epoch: 3},
		{Op: opUpdateExam, Exam: codecExam(), Epoch: 0},
		{Op: opPutAdaptive, Session: codecSession(), Epoch: 9},
		{Op: opDeleteProblem, ID: "p-gone", Epoch: 1},
		{Op: opRollback, ID: "p-all", Problem: codecProblem(), Epoch: 2},
		// Minimal problem: zero-count collections must decode to nil, as a
		// JSON omitempty round-trip yields.
		{Op: opAddProblem, Problem: &item.Problem{
			ID: "tiny", Style: item.TrueFalse, Question: "q?", Answer: "true",
			Level: cognition.Knowledge,
		}},
	}
	var wal []byte
	for _, rec := range records {
		var err error
		wal, err = encodeWALBinary(wal, &rec)
		if err != nil {
			t.Fatalf("encode %s: %v", rec.Op, err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(wal))
	for i, want := range records {
		payload, isJSON, _, err := walcodec.NextRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if isJSON {
			t.Fatalf("record %d detected as JSON", i)
		}
		got, err := decodeWALBinary(payload)
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d (%s) round-trip mismatch:\ngot  %+v\nwant %+v", i, want.Op, got, want)
		}
	}
}

func TestParseCodec(t *testing.T) {
	if c, err := wal.ParseCodec(""); err != nil || c != wal.CodecJSON {
		t.Errorf("wal.ParseCodec(\"\") = %v, %v; want json", c, err)
	}
	if c, err := wal.ParseCodec("binary"); err != nil || c != wal.CodecBinary {
		t.Errorf("wal.ParseCodec(binary) = %v, %v", c, err)
	}
	if _, err := wal.ParseCodec("protobuf"); err == nil {
		t.Error("wal.ParseCodec accepted an unknown codec")
	}
}

// TestJournalMixedFormatReplay switches a live journal directory between
// codecs across crash-reopens: a JSON-era WAL gains binary frames when
// reopened under the binary codec (and vice versa), and every reopen —
// under either setting — replays the full mixed log.
func TestJournalMixedFormatReplay(t *testing.T) {
	dir := t.TempDir()
	open := func(codec wal.Codec) *Journal {
		t.Helper()
		j, err := OpenJournal(dir, NewSharded(4),
			JournalOptions{CompactEvery: 1_000_000, Sync: wal.SyncNone, Codec: codec})
		if err != nil {
			t.Fatalf("open %s: %v", codec, err)
		}
		return j
	}
	j := open(wal.CodecJSON)
	for _, id := range []string{"j0", "j1"} {
		if err := j.AddProblem(confMC(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AddExam(&ExamRecord{ID: "e1", Title: "t", ProblemIDs: []string{"j0"}}); err != nil {
		t.Fatal(err)
	}
	crashStop(j)

	j = open(wal.CodecBinary)
	for _, id := range []string{"j0", "j1"} {
		if _, err := j.Problem(id); err != nil {
			t.Fatalf("JSON-era record %s lost under binary codec: %v", id, err)
		}
	}
	for _, id := range []string{"b0", "b1"} {
		if err := j.AddProblem(confMC(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.PutAdaptiveSession(codecSession()); err != nil {
		t.Fatal(err)
	}
	crashStop(j)

	// The WAL must now genuinely hold both formats.
	raw, err := os.ReadFile(j.walPath)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != '{' || bytes.IndexByte(raw, walcodec.Magic) < 0 {
		t.Fatal("WAL does not contain both JSON lines and binary frames")
	}

	j = open(wal.CodecJSON)
	defer func() { _ = j.Close() }()
	for _, id := range []string{"j0", "j1", "b0", "b1"} {
		if _, err := j.Problem(id); err != nil {
			t.Errorf("mixed-WAL record %s lost: %v", id, err)
		}
	}
	if _, err := j.Exam("e1"); err != nil {
		t.Errorf("exam lost across codec switches: %v", err)
	}
	sess, err := j.AdaptiveSession("s1")
	if err != nil {
		t.Fatalf("adaptive session lost across codec switches: %v", err)
	}
	if !reflect.DeepEqual(sess, codecSession()) {
		t.Errorf("adaptive session mangled by binary replay:\ngot  %+v\nwant %+v", sess, codecSession())
	}
}

// TestJournalBinaryCorruptRecord flips a payload byte of a non-final binary
// record: replay must fail the boot with a CRC error, never silently skip.
func TestJournalBinaryCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, NewSharded(4),
		JournalOptions{CompactEvery: 1_000_000, Sync: wal.SyncNone, Codec: wal.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.AddProblem(confMC(t, fmt.Sprintf("q%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	crashStop(j)
	raw, err := os.ReadFile(j.walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[walcodec.HeaderLen+2] ^= 0xFF // inside the first record's payload
	if err := os.WriteFile(j.walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, NewSharded(4), JournalOptions{}); err == nil {
		t.Fatal("reopen over corrupt mid-log record succeeded")
	}
}

// TestCompactProgressesUnderSaturatedWriters proves the starvation fix:
// with writers continuously refilling the commit queue, an explicit
// Compact() must still complete (the bounded optimistic drain gives way to
// a brief writer stall) instead of spinning until the writers stop.
func TestCompactProgressesUnderSaturatedWriters(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, NewSharded(8),
		JournalOptions{CompactEvery: 1_000_000, Sync: wal.SyncGroup, Codec: wal.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var acked atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := j.AddProblem(confMC(t, fmt.Sprintf("w%d-%d", w, i))); err != nil {
					return // journal closed by the test epilogue
				}
				acked.Add(1)
			}
		}(w)
	}
	// Let the writers reach a steady saturated state first.
	for acked.Load() < 64 {
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- j.Compact() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Compact under saturation: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Compact starved by saturated writers")
	}
	if _, err := os.Stat(j.snapshotPath); err != nil {
		t.Errorf("compaction reported success but no snapshot exists: %v", err)
	}
	// Writers must resume after the stall and the journal must stay usable.
	before := acked.Load()
	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if acked.Load() == before {
		t.Error("writers did not resume after compaction")
	}
	close(stop)
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
