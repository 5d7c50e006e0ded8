package analysis

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

// workedClassExam rebuilds the paper's class of 44 whose top-11/bottom-11
// split yields exactly the worked option tables of questions no. 2 and
// no. 6. Twenty true/false filler questions create unambiguous score
// separation between the high group (18-20 fillers correct), the middle
// (8-15) and the low group (0-3), so the two scored questions (at most 2
// extra points) can never move a student across a group boundary.
func workedClassExam(t testing.TB) *ExamResult {
	t.Helper()

	q2, err := item.NewMultipleChoice("no2", "Worked question no. 2",
		[]string{"alpha", "beta", "gamma", "delta"}, 2) // correct C
	if err != nil {
		t.Fatal(err)
	}
	q6, err := item.NewMultipleChoice("no6", "Worked question no. 6",
		[]string{"alpha", "beta", "gamma", "delta"}, 3) // correct D
	if err != nil {
		t.Fatal(err)
	}
	problems := []*item.Problem{q2, q6}
	const fillers = 20
	for i := 1; i <= fillers; i++ {
		problems = append(problems, &item.Problem{
			ID: fmt.Sprintf("f%02d", i), Style: item.TrueFalse,
			Question: "filler", Answer: "true", Level: cognition.Knowledge,
		})
	}

	// Option assignments per group, in construction order.
	highQ2 := []string{"C", "C", "C", "C", "C", "C", "C", "C", "C", "C", "D"}
	lowQ2 := []string{"A", "A", "A", "B", "B", "C", "C", "C", "C", "D", "D"}
	highQ6 := []string{"A", "B", "C", "C", "C", "C", "D", "D", "D", "D", "D"}
	// Low group on q6 sums to 10 in the paper (one student skipped): the
	// 11th entry "" means unanswered.
	lowQ6 := []string{"B", "B", "C", "C", "C", "C", "D", "D", "D", "D", ""}

	e := &ExamResult{ExamID: "worked-class", Problems: problems}
	addStudent := func(id string, fillerCorrect int, q2opt, q6opt string) {
		s := StudentResult{StudentID: id}
		s.Responses = append(s.Responses, choiceResponse(id, q2, q2opt))
		s.Responses = append(s.Responses, choiceResponse(id, q6, q6opt))
		for i := 1; i <= fillers; i++ {
			ans := "false"
			if i <= fillerCorrect {
				ans = "true"
			}
			credit, _ := problems[1+i].Grade(ans)
			s.Responses = append(s.Responses, Response{
				StudentID: id, ProblemID: problems[1+i].ID,
				Option: ans, Credit: credit, Answered: true,
				TimeSpent: 30 * time.Second,
			})
		}
		e.Students = append(e.Students, s)
	}

	for i := 0; i < 11; i++ { // high group
		addStudent(fmt.Sprintf("h%02d", i), 18+i%3, highQ2[i], highQ6[i])
	}
	for i := 0; i < 22; i++ { // middle of the class
		addStudent(fmt.Sprintf("m%02d", i), 8+i%8, "C", "D")
	}
	for i := 0; i < 11; i++ { // low group
		addStudent(fmt.Sprintf("l%02d", i), i%4, lowQ2[i], lowQ6[i])
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return e
}

func choiceResponse(studentID string, p *item.Problem, opt string) Response {
	r := Response{StudentID: studentID, ProblemID: p.ID, TimeSpent: time.Minute}
	if opt == "" {
		return r // skipped
	}
	credit, _ := p.Grade(opt)
	r.Option = opt
	r.Credit = credit
	r.Answered = true
	return r
}

// TestWorkedClassGroupMembership pins the fixture's construction: exactly
// the h* students form the high group and the l* students the low group.
func TestWorkedClassGroupMembership(t *testing.T) {
	e := workedClassExam(t)
	g, err := SplitGroups(e, DefaultGroupFraction)
	if err != nil {
		t.Fatal(err)
	}
	if g.ClassSize != 44 || g.Size() != 11 {
		t.Fatalf("class %d group %d, want 44/11", g.ClassSize, g.Size())
	}
	for _, id := range g.High {
		if id[0] != 'h' {
			t.Errorf("high group contains %s", id)
		}
	}
	for _, id := range g.Low {
		if id[0] != 'l' {
			t.Errorf("low group contains %s", id)
		}
	}
	if !slices.Contains(g.High, "h00") || !slices.Contains(g.Low, "l00") {
		t.Error("expected h00 in high and l00 in low")
	}
}
