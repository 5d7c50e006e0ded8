package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

// analyzeAllocs is the recorded cost of one Analyze call on the
// teacher-report class (250 students × 40 four-option questions) in heap
// allocations. A reading may exceed it by 20% plus half an allocation of
// noise.
const (
	analyzeAllocs       = 663
	analyzeAllocCeiling = analyzeAllocs*1.2 + 0.5
)

// teacherClass builds a seeded class of students sitting questions
// four-option multiple-choice questions, each answering every question with
// a probability of success that rises with the student's index.
func teacherClass(t testing.TB, students, questions int, seed int64) *ExamResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := &ExamResult{ExamID: "teacher"}
	for q := 0; q < questions; q++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%03d", q+1), "teacher",
			[]string{"1", "2", "3", "4"}, q%4)
		if err != nil {
			t.Fatal(err)
		}
		e.Problems = append(e.Problems, p)
	}
	for s := 0; s < students; s++ {
		sr := StudentResult{StudentID: fmt.Sprintf("s%04d", s)}
		for _, p := range e.Problems {
			opt := p.OptionKeys()[rng.Intn(4)]
			if rng.Float64() < float64(s+1)/float64(students+1) {
				opt = p.CorrectKey()
			}
			credit, _ := p.Grade(opt)
			sr.Responses = append(sr.Responses, Response{
				StudentID: sr.StudentID, ProblemID: p.ID,
				Option: opt, Credit: credit, Answered: true,
			})
		}
		e.Students = append(e.Students, sr)
	}
	return e
}

func analyzeAllocsOf(t *testing.T, e *ExamResult) float64 {
	t.Helper()
	var err error
	got := testing.AllocsPerRun(20, func() {
		_, err = Analyze(e, Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAnalyzeAllocs pins the allocations of one teacher report's analysis.
func TestAnalyzeAllocs(t *testing.T) {
	got := analyzeAllocsOf(t, teacherClass(t, 250, 40, 1))
	t.Logf("Analyze 250x40: %.0f allocs/op (ceiling %.1f)", got, analyzeAllocCeiling)
	if got > analyzeAllocCeiling {
		t.Errorf("Analyze on 250 students x 40 questions allocates %.0f times, ceiling %.1f",
			got, analyzeAllocCeiling)
	}
}

// TestAnalyzeIsLinear: doubling the questions at most doubles the
// allocations, plus slack for the per-class work that does not grow. A class
// indexed again for every question would make the cost quadratic.
func TestAnalyzeIsLinear(t *testing.T) {
	at40 := analyzeAllocsOf(t, teacherClass(t, 250, 40, 1))
	at80 := analyzeAllocsOf(t, teacherClass(t, 250, 80, 1))
	t.Logf("allocs/op: %.0f at 40 questions, %.0f at 80 (%.2fx)", at40, at80, at80/at40)
	if at80 > 2.5*at40 {
		t.Errorf("80 questions allocate %.0f times, %.2fx the %.0f at 40; want at most 2.5x",
			at80, at80/at40, at40)
	}
}

// The reference implementation below is the per-question map index the
// matrix replaced, kept to check that the matrix answers the same.

// refIndex indexes responses by problem then student; a later response
// replaces an earlier one.
func refIndex(e *ExamResult) map[string]map[string]Response {
	idx := make(map[string]map[string]Response, len(e.Problems))
	for _, p := range e.Problems {
		idx[p.ID] = make(map[string]Response, len(e.Students))
	}
	for _, s := range e.Students {
		for _, r := range s.Responses {
			if m, ok := idx[r.ProblemID]; ok {
				m[s.StudentID] = r
			}
		}
	}
	return idx
}

func refOverallP(responses map[string]Response, classSize int) float64 {
	if classSize == 0 {
		return 0
	}
	right := 0
	for _, r := range responses {
		if r.Correct() {
			right++
		}
	}
	return float64(right) / float64(classSize)
}

func refGroupProportion(responses map[string]Response, group []string) float64 {
	if len(group) == 0 {
		return 0
	}
	right := 0
	for _, sid := range group {
		if r, ok := responses[sid]; ok && r.Correct() {
			right++
		}
	}
	return float64(right) / float64(len(group))
}

func refOptionTable(e *ExamResult, g Groups, problemID string) (*OptionTable, error) {
	p := e.Problem(problemID)
	if p == nil {
		return nil, fmt.Errorf("analysis: problem %q not in exam", problemID)
	}
	keys := p.OptionKeys()
	if len(keys) == 0 {
		switch p.CorrectKey() {
		case "true", "false":
			keys = []string{"true", "false"}
		default:
			return nil, fmt.Errorf("analysis: problem %q has no options to tabulate", problemID)
		}
	}
	t := &OptionTable{
		ProblemID: problemID, Keys: keys,
		High: make(map[string]int), Low: make(map[string]int),
		CorrectKey: p.CorrectKey(), HighSize: len(g.High), LowSize: len(g.Low),
	}
	valid := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		valid[k] = struct{}{}
	}
	byProblem := refIndex(e)[problemID]
	tally := func(ids []string, counts map[string]int, unanswered *int) {
		for _, sid := range ids {
			r, ok := byProblem[sid]
			if !ok || !r.Answered {
				*unanswered++
				continue
			}
			if _, known := valid[r.Option]; known {
				counts[r.Option]++
			} else {
				*unanswered++
			}
		}
	}
	tally(g.High, t.High, &t.HighUnanswered)
	tally(g.Low, t.Low, &t.LowUnanswered)
	return t, nil
}

func refAnalyze(t *testing.T, e *ExamResult, fraction float64) *ExamAnalysis {
	t.Helper()
	groups, err := SplitGroups(e, fraction)
	if err != nil {
		t.Fatal(err)
	}
	out := &ExamAnalysis{ExamID: e.ExamID, Groups: groups}
	byProblem := refIndex(e)
	for i, p := range e.Problems {
		q := &QuestionReport{Number: i + 1, ProblemID: p.ID}
		q.OverallP = refOverallP(byProblem[p.ID], len(e.Students))
		if p.CorrectKey() != "" {
			table, err := refOptionTable(e, groups, p.ID)
			if err != nil {
				t.Fatal(err)
			}
			q.Table = table
			q.PH, q.PL = table.PH(), table.PL()
			q.D, q.P = table.Discrimination(), table.Difficulty()
			q.Rules = EvaluateRules(table)
			q.Statuses = StatusesFor(q.Rules)
			q.Signal = EvaluateSignal(q.D, q.Rules)
			q.Distractors = AnalyzeDistraction(table)
		} else {
			q.PH = refGroupProportion(byProblem[p.ID], groups.High)
			q.PL = refGroupProportion(byProblem[p.ID], groups.Low)
			q.D = q.PH - q.PL
			q.P = (q.PH + q.PL) / 2
			q.Signal = EvaluateSignal(q.D, q.Rules)
		}
		out.Questions = append(out.Questions, q)
	}
	return out
}

func refQuestionnaires(e *ExamResult) []QuestionnaireSummary {
	var out []QuestionnaireSummary
	byProblem := refIndex(e)
	for _, p := range e.Problems {
		if p.Style != item.Questionnaire {
			continue
		}
		sum := QuestionnaireSummary{ProblemID: p.ID, Total: len(e.Students)}
		freq := make(map[string]int)
		for _, r := range byProblem[p.ID] {
			if r.Answered {
				sum.Answered++
				freq[r.Option]++
			}
		}
		for resp, n := range freq {
			sum.Counts = append(sum.Counts, ResponseCount{Response: resp, Count: n})
		}
		sort.Slice(sum.Counts, func(i, j int) bool {
			if sum.Counts[i].Count != sum.Counts[j].Count {
				return sum.Counts[i].Count > sum.Counts[j].Count
			}
			return sum.Counts[i].Response < sum.Counts[j].Response
		})
		out = append(out, sum)
	}
	return out
}

// randomClass builds a seeded class that exercises every corner of the
// index: multiple-choice, true/false, completion and questionnaire
// problems; students sharing an ID; a response given twice; skips; missing
// responses; and option keys no problem offers.
func randomClass(t *testing.T, rng *rand.Rand) *ExamResult {
	t.Helper()
	e := &ExamResult{ExamID: "prop"}
	for q, n := 0, 3+rng.Intn(10); q < n; q++ {
		id := fmt.Sprintf("p%02d", q)
		var p *item.Problem
		switch rng.Intn(4) {
		case 0, 1:
			texts := []string{"a", "b", "c", "d", "e"}[:3+rng.Intn(3)]
			var err error
			if p, err = item.NewMultipleChoice(id, "mc", texts, rng.Intn(len(texts))); err != nil {
				t.Fatal(err)
			}
		case 2:
			answer := []string{"true", "True", "false"}[rng.Intn(3)]
			p = &item.Problem{ID: id, Style: item.TrueFalse, Question: "tf",
				Answer: answer, Level: cognition.Knowledge}
		default:
			style := []item.Style{item.Completion, item.Questionnaire}[rng.Intn(2)]
			p = &item.Problem{ID: id, Style: style, Question: "open",
				Answer: "x", Level: cognition.Knowledge}
		}
		e.Problems = append(e.Problems, p)
	}
	e.Students = randomStudents(rng, e.Problems)
	return e
}

// randomStudents has 2 to 41 students sit the problems.
func randomStudents(rng *rand.Rand, problems []*item.Problem) []StudentResult {
	exam := &ExamResult{Problems: problems}
	n := 2 + rng.Intn(40)
	out := make([]StudentResult, 0, n)
	for s := 0; s < n; s++ {
		// IDs from a pool smaller than the class: some students share one.
		sid := fmt.Sprintf("s%02d", rng.Intn(n*3/4+1))
		sr := StudentResult{StudentID: sid}
		for _, p := range problems {
			if rng.Intn(8) == 0 {
				continue // no response recorded
			}
			sr.Responses = append(sr.Responses, randomResponse(rng, sid, p))
		}
		if len(sr.Responses) > 0 && rng.Intn(3) == 0 {
			// Answered twice: the later response must win.
			again := sr.Responses[rng.Intn(len(sr.Responses))]
			sr.Responses = append(sr.Responses, randomResponse(rng, sid, exam.Problem(again.ProblemID)))
		}
		rng.Shuffle(len(sr.Responses), func(i, j int) {
			sr.Responses[i], sr.Responses[j] = sr.Responses[j], sr.Responses[i]
		})
		out = append(out, sr)
	}
	return out
}

func randomResponse(rng *rand.Rand, sid string, p *item.Problem) Response {
	r := Response{StudentID: sid, ProblemID: p.ID}
	if rng.Intn(6) == 0 {
		return r // skipped
	}
	r.Answered = true
	choices := append(p.OptionKeys(), "true", "false", "Z", "")
	r.Option = choices[rng.Intn(len(choices))]
	r.Credit = []float64{0, 0.5, 1}[rng.Intn(3)]
	if r.Option == p.CorrectKey() && rng.Intn(4) != 0 {
		r.Credit = 1
	}
	return r
}

// TestMatrixMatchesMapIndexProperty: on seeded random classes, every field
// of every question report, the exported option table, the questionnaire
// summaries, the fraction sweep and the sensitivity index equal what the
// per-question map index produced.
func TestMatrixMatchesMapIndexProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := randomClass(t, rng)
		if err := e.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fraction := []float64{DefaultGroupFraction, KellyGroupFraction, 0.33, MaxGroupFraction}[rng.Intn(4)]
		got, err := Analyze(e, Options{GroupFraction: fraction})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := refAnalyze(t, e, fraction)
		if !reflect.DeepEqual(got.Groups, want.Groups) || len(got.Questions) != len(want.Questions) {
			t.Fatalf("seed %d: groups %+v, want %+v", seed, got.Groups, want.Groups)
		}
		for i := range want.Questions {
			if !reflect.DeepEqual(got.Questions[i], want.Questions[i]) {
				t.Fatalf("seed %d question %d:\n got %+v %+v\nwant %+v %+v", seed, i+1,
					got.Questions[i], got.Questions[i].Table, want.Questions[i], want.Questions[i].Table)
			}
		}

		// The exported builder, over groups that name a student the class
		// does not have.
		g := got.Groups
		g.High = append(append([]string(nil), g.High...), "stranger")
		for _, p := range e.Problems {
			gotT, gotErr := BuildOptionTable(e, g, p.ID)
			wantT, wantErr := refOptionTable(e, g, p.ID)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotT, wantT) {
				t.Fatalf("seed %d %s: table %+v (%v), want %+v (%v)", seed, p.ID, gotT, gotErr, wantT, wantErr)
			}
		}

		if got, want := SummarizeQuestionnaires(e), refQuestionnaires(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: questionnaires %+v, want %+v", seed, got, want)
		}

		sweep, err := FractionSweep(e, []float64{0, KellyGroupFraction, 0.33})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, f := range []float64{DefaultGroupFraction, KellyGroupFraction, 0.33} {
			ref := refAnalyze(t, e, f)
			sum := 0.0
			for _, q := range ref.Questions {
				sum += q.D
			}
			if sweep[i].MeanD != sum/float64(len(ref.Questions)) ||
				!reflect.DeepEqual(sweep[i].BySignal, ref.CountBySignal()) ||
				sweep[i].GroupSize != ref.Groups.Size() {
				t.Fatalf("seed %d: sweep point %d %+v disagrees with the reference", seed, i, sweep[i])
			}
		}

		// Sensitivity against a second class on the same problems, listed
		// in another order.
		post := &ExamResult{ExamID: "post", Problems: append([]*item.Problem(nil), e.Problems...)}
		rng.Shuffle(len(post.Problems), func(i, j int) {
			post.Problems[i], post.Problems[j] = post.Problems[j], post.Problems[i]
		})
		post.Students = randomStudents(rng, post.Problems)
		rep, err := InstructionalSensitivity(e, post)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		preIdx, postIdx := refIndex(e), refIndex(post)
		for _, p := range e.Problems {
			want := refOverallP(postIdx[p.ID], len(post.Students)) - refOverallP(preIdx[p.ID], len(e.Students))
			if rep.Items[p.ID] != want {
				t.Fatalf("seed %d %s: ISI %v, want %v", seed, p.ID, rep.Items[p.ID], want)
			}
		}
	}
}
