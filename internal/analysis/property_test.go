package analysis

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

// Property tests on the option-table arithmetic: for arbitrary non-negative
// counts, the derived indices stay within their mathematical ranges.

func tableFromRaw(high, low [5]uint8, correctIdx uint8) *OptionTable {
	keys := []string{"A", "B", "C", "D", "E"}
	h := make(map[string]int, 5)
	l := make(map[string]int, 5)
	hs, ls := 0, 0
	for i, k := range keys {
		h[k] = int(high[i] % 40)
		l[k] = int(low[i] % 40)
		hs += h[k]
		ls += l[k]
	}
	// Group sizes at least the sum of choices (some students may skip).
	return FromCounts("prop", keys[correctIdx%5], keys, h, l, hs+int(correctIdx%3), ls+int(correctIdx%2))
}

func TestOptionTableIndexRangesProperty(t *testing.T) {
	f := func(high, low [5]uint8, correctIdx uint8) bool {
		tab := tableFromRaw(high, low, correctIdx)
		ph, pl := tab.PH(), tab.PL()
		if ph < 0 || ph > 1 || pl < 0 || pl > 1 {
			return false
		}
		d := tab.Discrimination()
		if d < -1 || d > 1 {
			return false
		}
		p := tab.Difficulty()
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxMinConsistencyProperty(t *testing.T) {
	f := func(high, low [5]uint8, correctIdx uint8) bool {
		tab := tableFromRaw(high, low, correctIdx)
		hm, hmin := tab.HighMaxMin()
		lm, lmin := tab.LowMaxMin()
		if hm < hmin || lm < lmin {
			return false
		}
		// Sums bound the extremes.
		return hm <= tab.HS() && lm <= tab.LS()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Rules never panic and Rule 4 implies Rule 3's low-group condition when
// the same spread threshold holds on the low side.
func TestRule4ImpliesLowSpreadProperty(t *testing.T) {
	f := func(high, low [5]uint8, correctIdx uint8) bool {
		tab := tableFromRaw(high, low, correctIdx)
		r3 := EvaluateRule3(tab)
		r4 := EvaluateRule4(tab)
		if r4.Matched && tab.LS() > 0 && !r3.Matched {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Statuses derived from any rule outcome are always a subset of the Table 2
// column order without duplicates.
func TestStatusesOrderedProperty(t *testing.T) {
	f := func(m1, m2, m3, m4 bool) bool {
		rules := [4]RuleResult{
			{Rule: Rule1, Matched: m1},
			{Rule: Rule2, Matched: m2},
			{Rule: Rule3, Matched: m3},
			{Rule: Rule4, Matched: m4},
		}
		statuses := StatusesFor(rules)
		seen := make(map[Status]bool)
		last := Status(0)
		for _, st := range statuses {
			if seen[st] {
				return false
			}
			seen[st] = true
			if st <= last {
				return false
			}
			last = st
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// SplitGroups on arbitrary ladder sizes keeps groups equal-sized, disjoint
// and within the class.
func TestSplitGroupsProperty(t *testing.T) {
	f := func(nRaw uint8, fRaw uint8) bool {
		n := int(nRaw%60) + 2
		fraction := 0.10 + float64(fRaw%41)/100 // 0.10..0.50
		e := ladderForProperty(n)
		g, err := SplitGroups(e, fraction)
		if err != nil {
			return false
		}
		if len(g.High) != len(g.Low) {
			return false
		}
		if 2*len(g.High) > n {
			return false
		}
		for _, id := range g.High {
			if slices.Contains(g.Low, id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// ladderForProperty builds a strictly score-ordered class of n students over
// one true/false problem ladder, for the split property test.
func ladderForProperty(n int) *ExamResult {
	e := &ExamResult{ExamID: "prop-ladder"}
	for i := 0; i < n; i++ {
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
				Option: opt, Credit: credit, Answered: true,
			})
		}
		e.Students = append(e.Students, s)
	}
	return e
}
