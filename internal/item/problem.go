package item

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"mineassess/internal/cognition"
)

// Option is one selectable answer of a multiple-choice problem. Keys follow
// the paper's convention of single letters A, B, C, ... (Table 1 columns).
type Option struct {
	Key  string `json:"key"`
	Text string `json:"text"`
}

// MatchPair is one left/right pairing of a Match problem; Left must be
// matched to Right.
type MatchPair struct {
	Left  string `json:"left"`
	Right string `json:"right"`
}

// Picture is an image placed in a problem at an explicit position. The paper
// (§5.3): "We can put a picture in a problem, it is allowed to set the
// picture's position (x axis; y axis)."
type Picture struct {
	Ref string `json:"ref"` // file reference, e.g. "figures/circuit.gif"
	X   int    `json:"x"`
	Y   int    `json:"y"`
}

// Problem is one authored question with its assessment metadata (§3.3).
type Problem struct {
	ID      string `json:"id"`
	Style   Style  `json:"style"`
	Subject string `json:"subject"` // §3.3 II: each question's main subject

	// ConceptID ties the problem to a learning-content concept for the
	// two-way specification table.
	ConceptID string `json:"conceptId"`
	// Level is the Bloom cognition level the question exercises (§3.1).
	// Only scored styles need one; an unset level is omitted from the JSON.
	Level cognition.Level `json:"level,omitempty"`

	Question string `json:"question"`
	Hint     string `json:"hint,omitempty"`

	// Options holds the choices for MultipleChoice problems.
	Options []Option `json:"options,omitempty"`
	// Answer is the correct answer: an option key for MultipleChoice,
	// "true"/"false" for TrueFalse, the expected text for Completion, and a
	// model answer for Essay. Empty for Questionnaire (§3.3 I).
	Answer string `json:"answer,omitempty"`
	// Blanks holds accepted answers per blank for Completion problems, in
	// blank order; each blank may accept several surface forms.
	Blanks [][]string `json:"blanks,omitempty"`
	// Pairs holds the correct pairings for Match problems.
	Pairs []MatchPair `json:"pairs,omitempty"`

	// Resumable marks whether answering may pause and resume (§3.2 VI B).
	Resumable bool `json:"resumable"`

	Pictures []Picture `json:"pictures,omitempty"`
	// TemplateID names the presentation template used to lay the problem
	// out (§5.3). Empty means the default layout.
	TemplateID string `json:"templateId,omitempty"`

	// Points is the score weight of the problem; defaults to 1 when zero.
	Points float64 `json:"points,omitempty"`

	// Difficulty and Discrimination are the recorded Item Difficulty Index
	// and Item Discrimination Index from past administrations (§3.3 III-IV).
	// They are analysis outputs cached on the item for search and reuse; a
	// negative value means "not yet measured".
	Difficulty     float64 `json:"difficulty"`
	Discrimination float64 `json:"discrimination"`

	// Keywords support problem search (§5: "search similar or specific
	// subject or related problems").
	Keywords []string `json:"keywords,omitempty"`
}

// Validation errors callers may match with errors.Is.
var (
	ErrEmptyID          = errors.New("item: problem ID must not be empty")
	ErrInvalidStyle     = errors.New("item: invalid style")
	ErrEmptyQuestion    = errors.New("item: question text must not be empty")
	ErrNoOptions        = errors.New("item: multiple choice needs at least two options")
	ErrDuplicateOption  = errors.New("item: duplicate option key")
	ErrAnswerNotOption  = errors.New("item: answer is not an option key")
	ErrBadTrueFalse     = errors.New(`item: true/false answer must be "true" or "false"`)
	ErrNoBlanks         = errors.New("item: completion needs at least one blank")
	ErrEmptyBlank       = errors.New("item: completion blank needs at least one accepted answer")
	ErrNoPairs          = errors.New("item: match needs at least two pairs")
	ErrDuplicatePairKey = errors.New("item: duplicate match left side")
	ErrInvalidLevel     = errors.New("item: scored problems need a valid cognition level, others a valid one or none")
	ErrNotFinite        = errors.New("item: points, difficulty and discrimination must be finite")
)

// NewMultipleChoice builds a multiple-choice problem with options keyed
// A, B, C, ... in the order of texts, answering with the key at answerIdx.
func NewMultipleChoice(id, question string, texts []string, answerIdx int) (*Problem, error) {
	if answerIdx < 0 || answerIdx >= len(texts) {
		return nil, fmt.Errorf("item: answer index %d out of range [0,%d)", answerIdx, len(texts))
	}
	opts := make([]Option, 0, len(texts))
	for i, txt := range texts {
		opts = append(opts, Option{Key: string(rune('A' + i)), Text: txt})
	}
	p := &Problem{
		ID:             id,
		Style:          MultipleChoice,
		Question:       question,
		Options:        opts,
		Answer:         opts[answerIdx].Key,
		Level:          cognition.Knowledge,
		Difficulty:     -1,
		Discrimination: -1,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Weight returns the problem's score weight, defaulting to 1.
func (p *Problem) Weight() float64 {
	if p.Points <= 0 {
		return 1
	}
	return p.Points
}

// OptionKeys returns the option keys in authoring order.
func (p *Problem) OptionKeys() []string {
	keys := make([]string, 0, len(p.Options))
	for _, o := range p.Options {
		keys = append(keys, o.Key)
	}
	return keys
}

// CorrectKey returns the correct option key for MultipleChoice problems and
// the canonical "true"/"false" for TrueFalse problems; otherwise "".
func (p *Problem) CorrectKey() string {
	switch p.Style {
	case MultipleChoice:
		return p.Answer
	case TrueFalse:
		return strings.ToLower(p.Answer)
	default:
		return ""
	}
}

// Measured reports whether the item carries recorded difficulty and
// discrimination indices from a past administration.
func (p *Problem) Measured() bool {
	return p.Difficulty >= 0 && p.Discrimination >= -1 && !(p.Difficulty == -1)
}

// Validate checks the problem's structural integrity for its style.
func (p *Problem) Validate() error {
	if strings.TrimSpace(p.ID) == "" {
		return ErrEmptyID
	}
	if !p.Style.Valid() {
		return fmt.Errorf("%w: %d", ErrInvalidStyle, int(p.Style))
	}
	if strings.TrimSpace(p.Question) == "" {
		return fmt.Errorf("%w (problem %s)", ErrEmptyQuestion, p.ID)
	}
	if (p.Style.Scored() || p.Level != 0) && !p.Level.Valid() {
		return fmt.Errorf("%w (problem %s)", ErrInvalidLevel, p.ID)
	}
	// JSON has no NaN or infinity, so a problem holding one could be
	// stored but never encoded.
	for _, f := range [...]float64{p.Points, p.Difficulty, p.Discrimination} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%w (problem %s)", ErrNotFinite, p.ID)
		}
	}
	switch p.Style {
	case MultipleChoice:
		return p.validateMultipleChoice()
	case TrueFalse:
		if a := strings.ToLower(p.Answer); a != "true" && a != "false" {
			return fmt.Errorf("%w (problem %s, got %q)", ErrBadTrueFalse, p.ID, p.Answer)
		}
	case Completion:
		if len(p.Blanks) == 0 {
			return fmt.Errorf("%w (problem %s)", ErrNoBlanks, p.ID)
		}
		for i, blank := range p.Blanks {
			if len(blank) == 0 {
				return fmt.Errorf("%w (problem %s, blank %d)", ErrEmptyBlank, p.ID, i)
			}
		}
	case Match:
		if len(p.Pairs) < 2 {
			return fmt.Errorf("%w (problem %s)", ErrNoPairs, p.ID)
		}
		seen := make(map[string]struct{}, len(p.Pairs))
		for _, pair := range p.Pairs {
			if _, dup := seen[pair.Left]; dup {
				return fmt.Errorf("%w (problem %s, left %q)", ErrDuplicatePairKey, p.ID, pair.Left)
			}
			seen[pair.Left] = struct{}{}
		}
	case Essay, Questionnaire:
		// Question + optional hint are sufficient (§3.2 I, VI).
	}
	return nil
}

func (p *Problem) validateMultipleChoice() error {
	if len(p.Options) < 2 {
		return fmt.Errorf("%w (problem %s, got %d)", ErrNoOptions, p.ID, len(p.Options))
	}
	seen := make(map[string]struct{}, len(p.Options))
	answerFound := false
	for _, o := range p.Options {
		if _, dup := seen[o.Key]; dup {
			return fmt.Errorf("%w (problem %s, key %q)", ErrDuplicateOption, p.ID, o.Key)
		}
		seen[o.Key] = struct{}{}
		if o.Key == p.Answer {
			answerFound = true
		}
	}
	if !answerFound {
		return fmt.Errorf("%w (problem %s, answer %q)", ErrAnswerNotOption, p.ID, p.Answer)
	}
	return nil
}

// Clone returns a deep copy of the problem. Authoring uses this for the
// paper's "copy the problem structure for reuse" operation (§5.3).
func (p *Problem) Clone() *Problem {
	cp := *p
	cp.Options = append([]Option(nil), p.Options...)
	cp.Pairs = append([]MatchPair(nil), p.Pairs...)
	cp.Pictures = append([]Picture(nil), p.Pictures...)
	cp.Keywords = append([]string(nil), p.Keywords...)
	if p.Blanks != nil {
		cp.Blanks = make([][]string, len(p.Blanks))
		for i, b := range p.Blanks {
			cp.Blanks[i] = append([]string(nil), b...)
		}
	}
	return &cp
}

// Grade scores a raw response against the problem, returning the fraction of
// credit in [0,1]. Essay problems cannot be auto-graded and return 0 with
// ok=false; questionnaires are unscored (0, false).
//
// Response formats: option key for MultipleChoice; "true"/"false" for
// TrueFalse; "|"-separated blank answers for Completion; "|"-separated
// "left=right" pairs for Match.
func (p *Problem) Grade(response string) (credit float64, ok bool) {
	switch p.Style {
	case MultipleChoice:
		if response == p.Answer {
			return 1, true
		}
		return 0, true
	case TrueFalse:
		if strings.EqualFold(strings.TrimSpace(response), p.Answer) {
			return 1, true
		}
		return 0, true
	case Completion:
		return p.gradeCompletion(response), true
	case Match:
		return p.gradeMatch(response), true
	default:
		return 0, false
	}
}

func (p *Problem) gradeCompletion(response string) float64 {
	given := strings.Split(response, "|")
	correct := 0
	for i, accepted := range p.Blanks {
		if i >= len(given) {
			break
		}
		g := strings.TrimSpace(given[i])
		for _, a := range accepted {
			if strings.EqualFold(g, a) {
				correct++
				break
			}
		}
	}
	return float64(correct) / float64(len(p.Blanks))
}

func (p *Problem) gradeMatch(response string) float64 {
	want := make(map[string]string, len(p.Pairs))
	for _, pair := range p.Pairs {
		want[pair.Left] = pair.Right
	}
	correct := 0
	for _, part := range strings.Split(response, "|") {
		left, right, found := strings.Cut(part, "=")
		if !found {
			continue
		}
		if want[strings.TrimSpace(left)] == strings.TrimSpace(right) {
			correct++
		}
	}
	return float64(correct) / float64(len(p.Pairs))
}
