package analysis

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

// scoreLadderExam builds n students where student i answers the first i of n
// true/false problems correctly, giving strictly increasing scores.
func scoreLadderExam(t *testing.T, n int) *ExamResult {
	t.Helper()
	e := &ExamResult{ExamID: "ladder"}
	for i := 1; i <= n; i++ {
		e.Problems = append(e.Problems, &item.Problem{
			ID: fmt.Sprintf("p%03d", i), Style: item.TrueFalse,
			Question: "?", Answer: "true", Level: cognition.Knowledge,
		})
	}
	for i := 0; i < n; i++ {
		s := StudentResult{StudentID: fmt.Sprintf("s%03d", i)}
		for j := 0; j < n; j++ {
			credit, opt := 0.0, "false"
			if j < i {
				credit, opt = 1, "true"
			}
			s.Responses = append(s.Responses, Response{
				StudentID: s.StudentID, ProblemID: e.Problems[j].ID,
				Option: opt, Credit: credit, Answered: true, TimeSpent: time.Second,
			})
		}
		e.Students = append(e.Students, s)
	}
	return e
}

func TestSplitGroupsPaperClass(t *testing.T) {
	// 44 students at 25% → 11 per group, as in the paper's worked example.
	e := scoreLadderExam(t, 44)
	g, err := SplitGroups(e, DefaultGroupFraction)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 11 {
		t.Errorf("group size = %d, want 11", g.Size())
	}
	// Highest scorer is s043 (43 correct), lowest s000.
	if g.High[0] != "s043" {
		t.Errorf("top of high group = %s, want s043", g.High[0])
	}
	if g.Low[0] != "s000" {
		t.Errorf("bottom of low group = %s, want s000", g.Low[0])
	}
}

func TestSplitGroupsKellyFraction(t *testing.T) {
	e := scoreLadderExam(t, 100)
	g, err := SplitGroups(e, KellyGroupFraction)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 27 {
		t.Errorf("group size = %d, want 27 (Kelly)", g.Size())
	}
}

func TestSplitGroupsFractionBounds(t *testing.T) {
	e := scoreLadderExam(t, 10)
	for _, f := range []float64{0.05, 0.51, -1, 2} {
		if _, err := SplitGroups(e, f); err == nil {
			t.Errorf("fraction %v should be rejected", f)
		}
	}
	for _, f := range []float64{MinGroupFraction, 0.25, 0.27, 0.33, MaxGroupFraction} {
		if _, err := SplitGroups(e, f); err != nil {
			t.Errorf("fraction %v should be accepted: %v", f, err)
		}
	}
}

func TestSplitGroupsDisjoint(t *testing.T) {
	e := scoreLadderExam(t, 9)
	g, err := SplitGroups(e, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// 9 students at 50% rounds to 5 but must be capped at n/2=4 so the
	// groups stay disjoint.
	if g.Size() != 4 {
		t.Errorf("group size = %d, want 4", g.Size())
	}
	for _, h := range g.High {
		if slices.Contains(g.Low, h) {
			t.Errorf("student %s in both groups", h)
		}
	}
}

func TestSplitGroupsTooFewStudents(t *testing.T) {
	e := scoreLadderExam(t, 1)
	if _, err := SplitGroups(e, 0.25); err == nil {
		t.Error("one student cannot be split")
	}
}

func TestSplitGroupsMinimumOnePerGroup(t *testing.T) {
	e := scoreLadderExam(t, 4)
	g, err := SplitGroups(e, 0.1) // 0.4 students rounds to 0 → floor 1
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 1 {
		t.Errorf("group size = %d, want 1", g.Size())
	}
}

func TestFractionSweep(t *testing.T) {
	e := scoreLadderExam(t, 100)
	points, err := FractionSweep(e, []float64{
		DefaultGroupFraction, KellyGroupFraction, 0.33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Fraction != "25%" || points[1].Fraction != "27%" || points[2].Fraction != "33%" {
		t.Errorf("labels = %v, %v, %v", points[0].Fraction, points[1].Fraction, points[2].Fraction)
	}
	if points[0].GroupSize != 25 || points[1].GroupSize != 27 || points[2].GroupSize != 33 {
		t.Errorf("group sizes = %d, %d, %d",
			points[0].GroupSize, points[1].GroupSize, points[2].GroupSize)
	}
	// Wider fractions dilute the extreme groups: mean D must not increase.
	if points[2].MeanD > points[0].MeanD+1e-9 {
		t.Errorf("33%% mean D %v should not exceed 25%% mean D %v",
			points[2].MeanD, points[0].MeanD)
	}
	// Signal counts total the question count each time.
	for _, p := range points {
		total := 0
		for _, n := range p.BySignal {
			total += n
		}
		if total != len(e.Problems) {
			t.Errorf("fraction %s signal total = %d", p.Fraction, total)
		}
	}
}

func TestFractionSweepBadFraction(t *testing.T) {
	e := scoreLadderExam(t, 10)
	if _, err := FractionSweep(e, []float64{0.9}); err == nil {
		t.Error("invalid fraction should fail")
	}
}

func TestRankedStudentsDeterministicTies(t *testing.T) {
	e := &ExamResult{
		ExamID: "ties",
		Problems: []*item.Problem{{
			ID: "p1", Style: item.TrueFalse, Question: "?",
			Answer: "true", Level: cognition.Knowledge,
		}},
	}
	for _, id := range []string{"zed", "amy", "bob"} {
		e.Students = append(e.Students, StudentResult{
			StudentID: id,
			Responses: []Response{{StudentID: id, ProblemID: "p1", Credit: 1, Answered: true}},
		})
	}
	ranked := e.RankedStudents()
	if ranked[0] != "amy" || ranked[1] != "bob" || ranked[2] != "zed" {
		t.Errorf("ties should break by ID ascending, got %v", ranked)
	}
}

func TestStudentResultScoreWeights(t *testing.T) {
	s := StudentResult{Responses: []Response{
		{ProblemID: "a", Credit: 1},
		{ProblemID: "b", Credit: 0.5},
	}}
	got := s.Score(map[string]float64{"a": 2, "b": 4})
	if got != 4 { // 1*2 + 0.5*4
		t.Errorf("Score = %v, want 4", got)
	}
	// Missing weights default to 1.
	if got := s.Score(map[string]float64{}); got != 1.5 {
		t.Errorf("Score = %v, want 1.5", got)
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	p := &item.Problem{ID: "p1", Style: item.TrueFalse, Question: "?",
		Answer: "true", Level: cognition.Knowledge}
	e := &ExamResult{ExamID: "x", Problems: []*item.Problem{p}}
	if err := e.Validate(); err != ErrNoStudents {
		t.Errorf("err = %v, want ErrNoStudents", err)
	}
	empty := &ExamResult{ExamID: "x", Students: []StudentResult{{StudentID: "s"}}}
	if err := empty.Validate(); err != ErrNoProblems {
		t.Errorf("err = %v, want ErrNoProblems", err)
	}
	dup := &ExamResult{ExamID: "x", Problems: []*item.Problem{p, p},
		Students: []StudentResult{{StudentID: "s"}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate problems should be rejected")
	}
	stray := &ExamResult{ExamID: "x", Problems: []*item.Problem{p},
		Students: []StudentResult{{StudentID: "s",
			Responses: []Response{{ProblemID: "ghost", Credit: 1}}}}}
	if err := stray.Validate(); err == nil {
		t.Error("response to unknown problem should be rejected")
	}
	badCredit := &ExamResult{ExamID: "x", Problems: []*item.Problem{p},
		Students: []StudentResult{{StudentID: "s",
			Responses: []Response{{ProblemID: "p1", Credit: 1.5}}}}}
	if err := badCredit.Validate(); err == nil {
		t.Error("credit > 1 should be rejected")
	}
}

func TestStudentResultAggregates(t *testing.T) {
	s := StudentResult{Responses: []Response{
		{Answered: true, TimeSpent: time.Minute},
		{Answered: false, TimeSpent: 30 * time.Second},
		{Answered: true, TimeSpent: 90 * time.Second},
	}}
	if got := s.AnsweredCount(); got != 2 {
		t.Errorf("AnsweredCount = %d, want 2", got)
	}
	if got := s.TotalTime(); got != 3*time.Minute {
		t.Errorf("TotalTime = %v, want 3m", got)
	}
}

func TestResponseCorrect(t *testing.T) {
	if (Response{Answered: true, Credit: 1}).Correct() != true {
		t.Error("full credit should be correct")
	}
	if (Response{Answered: true, Credit: 0.99}).Correct() {
		t.Error("partial credit should not be correct")
	}
	if (Response{Answered: false, Credit: 1}).Correct() {
		t.Error("unanswered should not be correct")
	}
}
