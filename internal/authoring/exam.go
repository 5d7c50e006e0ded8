package authoring

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/item"
)

// ExamDraft is an exam under construction. Build it with NewExamDraft, add
// problems and groups, then Finalize into a bank.ExamRecord.
type ExamDraft struct {
	ID       string
	Title    string
	Display  item.DisplayOrder
	TestTime time.Duration

	problemIDs []string
	seen       map[string]struct{}
	groups     []bank.ExamGroup
}

// NewExamDraft starts a draft with fixed ordering by default.
func NewExamDraft(id, title string) *ExamDraft {
	return &ExamDraft{
		ID:      id,
		Title:   title,
		Display: item.FixedOrder,
		seen:    make(map[string]struct{}),
	}
}

// Errors callers may match.
var (
	ErrDuplicateProblem = errors.New("authoring: problem already in exam")
	ErrEmptyExam        = errors.New("authoring: exam has no problems")
	ErrUnknownGroupItem = errors.New("authoring: group references problem not in exam")
)

// Add appends problems to the exam in order.
func (d *ExamDraft) Add(problemIDs ...string) error {
	for _, id := range problemIDs {
		if _, dup := d.seen[id]; dup {
			return fmt.Errorf("%w: %s", ErrDuplicateProblem, id)
		}
		d.seen[id] = struct{}{}
		d.problemIDs = append(d.problemIDs, id)
	}
	return nil
}

// Len returns the number of problems in the draft.
func (d *ExamDraft) Len() int {
	return len(d.problemIDs)
}

// ProblemIDs returns the draft's problems in authored order, as a copy.
func (d *ExamDraft) ProblemIDs() []string {
	return append([]string(nil), d.problemIDs...)
}

// AddGroup defines a §5.4 presentation group over problems already in the
// exam. Groups let an instructor compose "all possible presentation styles"
// from parts.
func (d *ExamDraft) AddGroup(name string, problemIDs ...string) error {
	if strings.TrimSpace(name) == "" {
		return errors.New("authoring: group name must not be empty")
	}
	for _, id := range problemIDs {
		if _, ok := d.seen[id]; !ok {
			return fmt.Errorf("%w: %s in group %s", ErrUnknownGroupItem, id, name)
		}
	}
	d.groups = append(d.groups, bank.ExamGroup{
		Name:       name,
		ProblemIDs: append([]string(nil), problemIDs...),
	})
	return nil
}

// Finalize validates the draft against the store (every problem must exist)
// and returns the persistable record.
func (d *ExamDraft) Finalize(store bank.Storage) (*bank.ExamRecord, error) {
	if strings.TrimSpace(d.ID) == "" {
		return nil, errors.New("authoring: exam ID must not be empty")
	}
	if len(d.problemIDs) == 0 {
		return nil, ErrEmptyExam
	}
	if _, err := store.Problems(d.problemIDs); err != nil {
		return nil, fmt.Errorf("authoring: finalize %s: %w", d.ID, err)
	}
	rec := &bank.ExamRecord{
		ID:              d.ID,
		Title:           d.Title,
		ProblemIDs:      append([]string(nil), d.problemIDs...),
		Display:         d.Display,
		TestTimeSeconds: int(d.TestTime / time.Second),
		Groups:          append([]bank.ExamGroup(nil), d.groups...),
	}
	return rec, nil
}

// PresentationOrder computes the order in which a learner sees the exam's
// problems. FixedOrder returns the authored order and ignores rng (it may
// be nil); RandomOrder shuffles with rng, which the caller seeds with the
// sitting's seed so a seed always gives the same order, keeping each
// presentation group contiguous in its authored internal order.
func PresentationOrder(rec *bank.ExamRecord, rng *rand.Rand) ([]string, error) {
	switch rec.Display {
	case item.FixedOrder:
		return append([]string(nil), rec.ProblemIDs...), nil
	case item.RandomOrder:
		return shuffledOrder(rec, rng), nil
	default:
		return nil, fmt.Errorf("authoring: exam %s has invalid display order %d",
			rec.ID, int(rec.Display))
	}
}

// shuffledOrder shuffles blocks: each group is a block; ungrouped problems
// are singleton blocks, in authored order. Blocks are shuffled, not their
// contents, so an instructor's curated sequences survive randomization.
// Without groups every block is one problem, so the order is a shuffled
// copy of the problem list. With groups the blocks are codes: i >= 0 is
// ungrouped problem i, -1-g is group g. A problem listed in several groups
// belongs to the last.
func shuffledOrder(rec *bank.ExamRecord, rng *rand.Rand) []string {
	if len(rec.Groups) == 0 {
		out := make([]string, len(rec.ProblemIDs))
		copy(out, rec.ProblemIDs)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	grouped := make(map[string]int) // problem ID -> group index
	for gi, g := range rec.Groups {
		for _, id := range g.ProblemIDs {
			grouped[id] = gi
		}
	}
	blocks := make([]int, 0, len(rec.ProblemIDs))
	emitted := make([]bool, len(rec.Groups))
	for i, id := range rec.ProblemIDs {
		gi, ok := grouped[id]
		switch {
		case !ok:
			blocks = append(blocks, i)
		case !emitted[gi]:
			emitted[gi] = true
			blocks = append(blocks, -1-gi)
		}
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	out := make([]string, 0, len(rec.ProblemIDs))
	for _, b := range blocks {
		if b >= 0 {
			out = append(out, rec.ProblemIDs[b])
		} else {
			out = append(out, rec.Groups[-1-b].ProblemIDs...)
		}
	}
	return out
}

// CloneProblemAs copies an existing problem under a new ID — the paper's
// "copy the problem structure for reuse" (§5.3) — and stores it.
func CloneProblemAs(store bank.Storage, srcID, newID string) (*item.Problem, error) {
	src, err := store.Problem(srcID)
	if err != nil {
		return nil, err
	}
	cp := src.Clone()
	cp.ID = newID
	if err := store.AddProblem(cp); err != nil {
		return nil, err
	}
	return cp, nil
}
