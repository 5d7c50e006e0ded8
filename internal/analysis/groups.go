package analysis

import "fmt"

// Group-fraction constants. The paper cites Kelly (1939): "the best
// percentage is 27%, and the acceptable percentage is 25%-33%", and adopts
// 25% itself (§4.1.1 step 2).
const (
	// DefaultGroupFraction is the paper's choice of 25%.
	DefaultGroupFraction = 0.25
	// KellyGroupFraction is Kelly's optimal 27%.
	KellyGroupFraction = 0.27
	// MinGroupFraction and MaxGroupFraction bound the acceptable range.
	MinGroupFraction = 0.10
	MaxGroupFraction = 0.50
)

// Groups is the outcome of the §4.1.1 split: the higher-scoring and
// lower-scoring portions of the class, each holding student IDs in rank
// order (best first for High, worst first for Low).
type Groups struct {
	High     []string
	Low      []string
	Fraction float64
	// ClassSize is the total number of students split.
	ClassSize int
}

// Size returns the size of each group (both groups are equal-sized).
func (g Groups) Size() int {
	return len(g.High)
}

// SplitGroups ranks students by score (step 1) and takes the top and bottom
// fraction as the higher and lower groups (step 2). The group size is
// round(n*fraction) with a floor of 1 student per group; fraction must lie in
// the acceptable range.
func SplitGroups(e *ExamResult, fraction float64) (Groups, error) {
	if fraction < MinGroupFraction || fraction > MaxGroupFraction {
		return Groups{}, fmt.Errorf(
			"analysis: group fraction %v outside acceptable range [%v,%v]",
			fraction, MinGroupFraction, MaxGroupFraction)
	}
	if len(e.Students) < 2 {
		return Groups{}, fmt.Errorf(
			"analysis: need at least 2 students to split, have %d", len(e.Students))
	}
	ranked := e.RankedStudents()
	n := len(ranked)
	size := int(float64(n)*fraction + 0.5)
	if size < 1 {
		size = 1
	}
	if 2*size > n {
		size = n / 2
	}
	g := Groups{
		High:      append([]string(nil), ranked[:size]...),
		Fraction:  fraction,
		ClassSize: n,
	}
	low := make([]string, size)
	for i := 0; i < size; i++ {
		low[i] = ranked[n-1-i]
	}
	g.Low = low
	return g, nil
}

// FractionPoint is one row of the group-fraction ablation: the mean
// discrimination and per-signal counts the exam shows under one split
// fraction.
type FractionPoint struct {
	Fraction  string
	MeanD     float64
	BySignal  map[Signal]int
	GroupSize int
}

// FractionSweep re-analyzes the exam under each fraction — the ablation of
// the paper's 25% choice against Kelly's 27% and the 33% upper bound. The
// result is validated and indexed once for every fraction.
func FractionSweep(e *ExamResult, fractions []float64) ([]FractionPoint, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	m := newMatrix(e)
	out := make([]FractionPoint, 0, len(fractions))
	for _, f := range fractions {
		a, err := analyze(e, m, f)
		if err != nil {
			return nil, fmt.Errorf("analysis: sweep fraction %v: %w", f, err)
		}
		sum := 0.0
		for _, q := range a.Questions {
			sum += q.D
		}
		out = append(out, FractionPoint{
			Fraction:  fmt.Sprintf("%.0f%%", f*100),
			MeanD:     sum / float64(len(a.Questions)),
			BySignal:  a.CountBySignal(),
			GroupSize: a.Groups.Size(),
		})
	}
	return out, nil
}
