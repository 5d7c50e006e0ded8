package bank

import (
	"strings"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

// Query filters problems ("search similar or specific subject or related
// problems", §5). Zero-valued fields are wildcards; set fields combine with
// AND.
type Query struct {
	// Subject matches the problem subject exactly (case-insensitive).
	Subject string
	// Keyword matches case-insensitively against the question text, the
	// subject, and the keyword list.
	Keyword string
	// Style filters by question style.
	Style item.Style
	// Level filters by cognition level.
	Level cognition.Level
	// ConceptID filters by concept.
	ConceptID string
	// MinDifficulty and MaxDifficulty bound the recorded Item Difficulty
	// Index; both zero means no bound. Unmeasured items (negative index)
	// match only when no bound is set.
	MinDifficulty, MaxDifficulty float64
	// MinDiscrimination bounds the recorded Item Discrimination Index.
	MinDiscrimination float64
	// Limit caps the result count; 0 means no cap.
	Limit int
}

func (q Query) matches(p *item.Problem) bool {
	if q.Subject != "" && !strings.EqualFold(q.Subject, p.Subject) {
		return false
	}
	if q.Style != 0 && q.Style != p.Style {
		return false
	}
	if q.Level != 0 && q.Level != p.Level {
		return false
	}
	if q.ConceptID != "" && q.ConceptID != p.ConceptID {
		return false
	}
	if q.Keyword != "" && !keywordMatch(p, q.Keyword) {
		return false
	}
	hasDiffBound := q.MinDifficulty != 0 || q.MaxDifficulty != 0
	if hasDiffBound {
		if p.Difficulty < 0 {
			return false // unmeasured
		}
		if p.Difficulty < q.MinDifficulty {
			return false
		}
		if q.MaxDifficulty != 0 && p.Difficulty > q.MaxDifficulty {
			return false
		}
	}
	if q.MinDiscrimination != 0 {
		if p.Discrimination < q.MinDiscrimination {
			return false
		}
	}
	return true
}

func keywordMatch(p *item.Problem, kw string) bool {
	kw = strings.ToLower(kw)
	if strings.Contains(strings.ToLower(p.Question), kw) {
		return true
	}
	if strings.Contains(strings.ToLower(p.Subject), kw) {
		return true
	}
	for _, k := range p.Keywords {
		if strings.Contains(strings.ToLower(k), kw) {
			return true
		}
	}
	return false
}
