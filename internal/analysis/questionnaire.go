package analysis

import (
	"sort"

	"mineassess/internal/item"
)

// QuestionnaireSummary tallies one questionnaire-style question's responses
// (§3.2 VI). Questionnaires are unscored, so the analysis is a frequency
// distribution over the free-form answers collected.
type QuestionnaireSummary struct {
	ProblemID string
	// Total is the number of students asked (class size).
	Total int
	// Answered is how many responded.
	Answered int
	// Counts holds response frequencies ordered by descending count then
	// response text.
	Counts []ResponseCount
}

// ResponseCount is one response value's frequency.
type ResponseCount struct {
	Response string
	Count    int
}

// ResponseRate returns the answered fraction.
func (q QuestionnaireSummary) ResponseRate() float64 {
	if q.Total == 0 {
		return 0
	}
	return float64(q.Answered) / float64(q.Total)
}

// Mode returns the most frequent response ("" when nobody answered).
func (q QuestionnaireSummary) Mode() string {
	if len(q.Counts) == 0 {
		return ""
	}
	return q.Counts[0].Response
}

// SummarizeQuestionnaires tallies every questionnaire-style problem in the
// exam. For questionnaires the Response.Option field carries the collected
// answer (a Likert key, a category, or short text).
func SummarizeQuestionnaires(e *ExamResult) []QuestionnaireSummary {
	var out []QuestionnaireSummary
	m := newMatrix(e)
	for _, p := range e.Problems {
		if p.Style != item.Questionnaire {
			continue
		}
		sum := QuestionnaireSummary{ProblemID: p.ID, Total: len(e.Students)}
		freq := make(map[string]int)
		for _, r := range m.column(p.ID) {
			if r == nil || !r.Answered {
				continue
			}
			sum.Answered++
			freq[r.Option]++
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
