package item

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mineassess/internal/cognition"
)

func validMC(t *testing.T) *Problem {
	t.Helper()
	p, err := NewMultipleChoice("q1", "What is 2+2?", []string{"3", "4", "5", "6"}, 1)
	if err != nil {
		t.Fatalf("NewMultipleChoice: %v", err)
	}
	return p
}

func TestNewMultipleChoice(t *testing.T) {
	p := validMC(t)
	if p.Answer != "B" {
		t.Errorf("Answer = %q, want B", p.Answer)
	}
	keys := p.OptionKeys()
	want := []string{"A", "B", "C", "D"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("keys[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
}

func TestNewMultipleChoiceBadIndex(t *testing.T) {
	if _, err := NewMultipleChoice("q1", "?", []string{"a", "b"}, 2); err == nil {
		t.Error("out-of-range answer index should fail")
	}
	if _, err := NewMultipleChoice("q1", "?", []string{"a", "b"}, -1); err == nil {
		t.Error("negative answer index should fail")
	}
}

func TestValidateEmptyID(t *testing.T) {
	p := validMC(t)
	p.ID = "  "
	if err := p.Validate(); !errors.Is(err, ErrEmptyID) {
		t.Errorf("err = %v, want ErrEmptyID", err)
	}
}

func TestValidateInvalidStyle(t *testing.T) {
	p := validMC(t)
	p.Style = Style(0)
	if err := p.Validate(); !errors.Is(err, ErrInvalidStyle) {
		t.Errorf("err = %v, want ErrInvalidStyle", err)
	}
}

func TestValidateEmptyQuestion(t *testing.T) {
	p := validMC(t)
	p.Question = ""
	if err := p.Validate(); !errors.Is(err, ErrEmptyQuestion) {
		t.Errorf("err = %v, want ErrEmptyQuestion", err)
	}
}

func TestValidateMissingLevel(t *testing.T) {
	p := validMC(t)
	p.Level = 0
	if err := p.Validate(); !errors.Is(err, ErrInvalidLevel) {
		t.Errorf("err = %v, want ErrInvalidLevel", err)
	}
	// Questionnaires are unscored and need no level, but one they carry
	// must be valid.
	q := &Problem{ID: "s1", Style: Questionnaire, Question: "How was the course?"}
	if err := q.Validate(); err != nil {
		t.Errorf("questionnaire without level should validate: %v", err)
	}
	q.Level = cognition.Evaluation + 1
	if err := q.Validate(); !errors.Is(err, ErrInvalidLevel) {
		t.Errorf("questionnaire with level %d: err = %v, want ErrInvalidLevel", q.Level, err)
	}
}

// TestEveryValidProblemEncodes: what Validate accepts json.Marshal can
// encode and decode back. A questionnaire without a level omits it, and a
// level that is set encodes by name; Validate refuses the NaN and infinite
// numbers JSON cannot hold.
func TestEveryValidProblemEncodes(t *testing.T) {
	for _, p := range []*Problem{
		{ID: "s1", Style: Questionnaire, Question: "How was the course?"},
		{ID: "s2", Style: Questionnaire, Question: "How was the course?", Level: cognition.Evaluation},
		validMC(t),
	} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		if got := strings.Contains(string(raw), `"level"`); got != (p.Level != 0) {
			t.Errorf("%s (level %d) encodes as %s", p.ID, p.Level, raw)
		}
		var back Problem
		if err := json.Unmarshal(raw, &back); err != nil || back.Level != p.Level || back.Style != p.Style {
			t.Errorf("%s decodes to %+v, %v", p.ID, back, err)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(*Problem){
			"points":         func(p *Problem) { p.Points = f },
			"difficulty":     func(p *Problem) { p.Difficulty = f },
			"discrimination": func(p *Problem) { p.Discrimination = f },
		} {
			p := validMC(t)
			set(p)
			if err := p.Validate(); !errors.Is(err, ErrNotFinite) {
				t.Errorf("%s %v: err = %v, want ErrNotFinite", name, f, err)
			}
		}
	}
}

func TestValidateTooFewOptions(t *testing.T) {
	p := validMC(t)
	p.Options = p.Options[:1]
	p.Answer = "A"
	if err := p.Validate(); !errors.Is(err, ErrNoOptions) {
		t.Errorf("err = %v, want ErrNoOptions", err)
	}
}

func TestValidateDuplicateOptionKey(t *testing.T) {
	p := validMC(t)
	p.Options[1].Key = "A"
	p.Answer = "A"
	if err := p.Validate(); !errors.Is(err, ErrDuplicateOption) {
		t.Errorf("err = %v, want ErrDuplicateOption", err)
	}
}

func TestValidateAnswerNotOption(t *testing.T) {
	p := validMC(t)
	p.Answer = "Z"
	if err := p.Validate(); !errors.Is(err, ErrAnswerNotOption) {
		t.Errorf("err = %v, want ErrAnswerNotOption", err)
	}
}

func TestValidateTrueFalse(t *testing.T) {
	p := &Problem{ID: "t1", Style: TrueFalse, Question: "Go has classes.",
		Answer: "false", Level: cognition.Knowledge}
	if err := p.Validate(); err != nil {
		t.Errorf("valid true/false rejected: %v", err)
	}
	p.Answer = "FALSE"
	if err := p.Validate(); err != nil {
		t.Errorf("case-insensitive answer rejected: %v", err)
	}
	p.Answer = "maybe"
	if err := p.Validate(); !errors.Is(err, ErrBadTrueFalse) {
		t.Errorf("err = %v, want ErrBadTrueFalse", err)
	}
}

func TestValidateCompletion(t *testing.T) {
	p := &Problem{ID: "c1", Style: Completion, Question: "The capital of France is ____.",
		Blanks: [][]string{{"Paris"}}, Level: cognition.Knowledge}
	if err := p.Validate(); err != nil {
		t.Errorf("valid completion rejected: %v", err)
	}
	p.Blanks = nil
	if err := p.Validate(); !errors.Is(err, ErrNoBlanks) {
		t.Errorf("err = %v, want ErrNoBlanks", err)
	}
	p.Blanks = [][]string{{}}
	if err := p.Validate(); !errors.Is(err, ErrEmptyBlank) {
		t.Errorf("err = %v, want ErrEmptyBlank", err)
	}
}

func TestValidateMatch(t *testing.T) {
	p := &Problem{ID: "m1", Style: Match, Question: "Match languages to paradigms.",
		Pairs: []MatchPair{{Left: "Go", Right: "procedural"}, {Left: "Haskell", Right: "functional"}},
		Level: cognition.Comprehension}
	if err := p.Validate(); err != nil {
		t.Errorf("valid match rejected: %v", err)
	}
	p.Pairs = p.Pairs[:1]
	if err := p.Validate(); !errors.Is(err, ErrNoPairs) {
		t.Errorf("err = %v, want ErrNoPairs", err)
	}
	p.Pairs = []MatchPair{{Left: "Go", Right: "a"}, {Left: "Go", Right: "b"}}
	if err := p.Validate(); !errors.Is(err, ErrDuplicatePairKey) {
		t.Errorf("err = %v, want ErrDuplicatePairKey", err)
	}
}

func TestGradeMultipleChoice(t *testing.T) {
	p := validMC(t)
	if credit, ok := p.Grade("B"); !ok || credit != 1 {
		t.Errorf("Grade(B) = %v, %v; want 1, true", credit, ok)
	}
	if credit, ok := p.Grade("A"); !ok || credit != 0 {
		t.Errorf("Grade(A) = %v, %v; want 0, true", credit, ok)
	}
}

func TestGradeTrueFalse(t *testing.T) {
	p := &Problem{ID: "t1", Style: TrueFalse, Question: "?", Answer: "true",
		Level: cognition.Knowledge}
	if credit, _ := p.Grade(" TRUE "); credit != 1 {
		t.Errorf("Grade(TRUE) = %v, want 1", credit)
	}
	if credit, _ := p.Grade("false"); credit != 0 {
		t.Errorf("Grade(false) = %v, want 0", credit)
	}
}

func TestGradeCompletionPartialCredit(t *testing.T) {
	p := &Problem{ID: "c1", Style: Completion, Question: "____ and ____",
		Blanks: [][]string{{"alpha", "α"}, {"beta"}}, Level: cognition.Knowledge}
	if credit, _ := p.Grade("alpha|beta"); credit != 1 {
		t.Errorf("full credit = %v, want 1", credit)
	}
	if credit, _ := p.Grade("α|nope"); credit != 0.5 {
		t.Errorf("half credit = %v, want 0.5", credit)
	}
	if credit, _ := p.Grade("zzz"); credit != 0 {
		t.Errorf("no credit = %v, want 0", credit)
	}
}

func TestGradeMatchPartialCredit(t *testing.T) {
	p := &Problem{ID: "m1", Style: Match, Question: "?",
		Pairs: []MatchPair{{Left: "1", Right: "one"}, {Left: "2", Right: "two"}},
		Level: cognition.Knowledge}
	if credit, _ := p.Grade("1=one|2=two"); credit != 1 {
		t.Errorf("full credit = %v, want 1", credit)
	}
	if credit, _ := p.Grade("1=one|2=nope"); credit != 0.5 {
		t.Errorf("half credit = %v, want 0.5", credit)
	}
	if credit, _ := p.Grade("garbage"); credit != 0 {
		t.Errorf("no credit = %v, want 0", credit)
	}
}

func TestGradeEssayNotAutoGradable(t *testing.T) {
	p := &Problem{ID: "e1", Style: Essay, Question: "Discuss.", Level: cognition.Evaluation}
	if _, ok := p.Grade("an essay"); ok {
		t.Error("essay should not auto-grade")
	}
}

func TestGradeQuestionnaireUnscored(t *testing.T) {
	p := &Problem{ID: "s1", Style: Questionnaire, Question: "Rate the course."}
	if _, ok := p.Grade("5"); ok {
		t.Error("questionnaire should be unscored")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := validMC(t)
	p.Keywords = []string{"math"}
	p.Blanks = [][]string{{"x"}}
	cp := p.Clone()
	cp.Options[0].Text = "mutated"
	cp.Keywords[0] = "mutated"
	cp.Blanks[0][0] = "mutated"
	if p.Options[0].Text == "mutated" || p.Keywords[0] == "mutated" || p.Blanks[0][0] == "mutated" {
		t.Error("Clone must deep-copy slices")
	}
}

func TestWeightDefault(t *testing.T) {
	p := validMC(t)
	if p.Weight() != 1 {
		t.Errorf("default weight = %v, want 1", p.Weight())
	}
	p.Points = 2.5
	if p.Weight() != 2.5 {
		t.Errorf("weight = %v, want 2.5", p.Weight())
	}
}

func TestCorrectKey(t *testing.T) {
	p := validMC(t)
	if p.CorrectKey() != "B" {
		t.Errorf("CorrectKey = %q, want B", p.CorrectKey())
	}
	tf := &Problem{Style: TrueFalse, Answer: "TRUE"}
	if tf.CorrectKey() != "true" {
		t.Errorf("CorrectKey = %q, want true", tf.CorrectKey())
	}
	essay := &Problem{Style: Essay}
	if essay.CorrectKey() != "" {
		t.Errorf("CorrectKey for essay = %q, want empty", essay.CorrectKey())
	}
}

func TestStyleParseRoundTrip(t *testing.T) {
	for _, s := range []Style{Essay, TrueFalse, MultipleChoice, Match, Completion, Questionnaire} {
		got, err := ParseStyle(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStyle(%s) = %v, %v", s, got, err)
		}
		got, err = ParseStyle(strings.ToLower(s.String()))
		if err != nil || got != s {
			t.Errorf("ParseStyle lowercase(%s) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseStyle("Oral"); err == nil {
		t.Error("unknown style should fail")
	}
}

func TestStyleScored(t *testing.T) {
	if Questionnaire.Scored() {
		t.Error("questionnaire must not be scored")
	}
	for _, s := range []Style{Essay, TrueFalse, MultipleChoice, Match, Completion} {
		if !s.Scored() {
			t.Errorf("%v should be scored", s)
		}
	}
	if Style(0).Scored() {
		t.Error("invalid style must not be scored")
	}
}

func TestDisplayOrder(t *testing.T) {
	if !FixedOrder.Valid() || !RandomOrder.Valid() || DisplayOrder(0).Valid() {
		t.Error("display order validity wrong")
	}
	if FixedOrder.String() != "FixedOrder" || RandomOrder.String() != "RandomOrder" {
		t.Error("display order names wrong")
	}
	if DisplayOrder(9).String() != "DisplayOrder(9)" {
		t.Error("unknown display order string wrong")
	}
}

// Property: grading a multiple-choice problem never awards credit for a
// non-answer key and always awards full credit for the answer key.
func TestGradeMCProperty(t *testing.T) {
	p, err := NewMultipleChoice("q", "?", []string{"w", "x", "y", "z"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(resp string) bool {
		credit, ok := p.Grade(resp)
		if !ok {
			return false
		}
		if resp == p.Answer {
			return credit == 1
		}
		return credit == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
