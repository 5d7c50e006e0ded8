package analysis

import "fmt"

// SensitivityReport holds per-item Instructional Sensitivity Indices
// (§3.4 III): the change in the whole-class Item Difficulty Index between a
// test given before teaching and the same test given after teaching. An
// effective lesson raises P on the items it covers.
type SensitivityReport struct {
	// Items maps problem ID to ISI = P(post) - P(pre).
	Items map[string]float64
	// PreMean and PostMean are the class-average difficulty indices.
	PreMean, PostMean float64
	// MeanISI is PostMean - PreMean.
	MeanISI float64
}

// InstructionalSensitivity compares a pre-teaching and a post-teaching
// administration of the same problems. Both results must cover the same
// problem IDs.
func InstructionalSensitivity(pre, post *ExamResult) (*SensitivityReport, error) {
	if err := pre.Validate(); err != nil {
		return nil, fmt.Errorf("pre-test: %w", err)
	}
	if err := post.Validate(); err != nil {
		return nil, fmt.Errorf("post-test: %w", err)
	}
	if len(pre.Problems) != len(post.Problems) {
		return nil, fmt.Errorf("analysis: pre has %d problems, post has %d",
			len(pre.Problems), len(post.Problems))
	}
	preM, postM := newMatrix(pre), newMatrix(post)
	rep := &SensitivityReport{Items: make(map[string]float64, len(pre.Problems))}
	for _, p := range pre.Problems {
		postCol := postM.column(p.ID)
		if postCol == nil {
			return nil, fmt.Errorf("analysis: problem %q missing from post-test", p.ID)
		}
		pPre := overallDifficulty(preM.column(p.ID), len(pre.Students))
		pPost := overallDifficulty(postCol, len(post.Students))
		rep.Items[p.ID] = pPost - pPre
		rep.PreMean += pPre
		rep.PostMean += pPost
	}
	n := float64(len(pre.Problems))
	rep.PreMean /= n
	rep.PostMean /= n
	rep.MeanISI = rep.PostMean - rep.PreMean
	return rep, nil
}

// SimpleDifficulty is the §3.3 III formula on raw counts: P = R/N. The
// paper's example: R=800, N=1000 gives P=0.8. N must be positive.
func SimpleDifficulty(right, total int) (float64, error) {
	if total <= 0 {
		return 0, fmt.Errorf("analysis: total must be positive, got %d", total)
	}
	if right < 0 || right > total {
		return 0, fmt.Errorf("analysis: right=%d out of [0,%d]", right, total)
	}
	return float64(right) / float64(total), nil
}
