// Package bank implements the paper's "problem & exam database" (§5,
// Figure 3 architecture): a concurrency-safe store of authored problems and
// exams with subject/style/cognition/difficulty/keyword search and JSON
// file persistence. It is the internal repository; SCORM-compatible external
// exchange lives in the scorm package.
package bank

import (
	"errors"

	"mineassess/internal/item"
	"mineassess/internal/simulate"
)

// Errors callers may match.
var (
	ErrProblemNotFound = errors.New("bank: problem not found")
	ErrProblemExists   = errors.New("bank: problem already exists")
	ErrExamNotFound    = errors.New("bank: exam not found")
	ErrExamExists      = errors.New("bank: exam already exists")
)

// ExamRecord is a stored exam definition: an ordered list of problem IDs
// plus presentation settings. (Assembly logic lives in package authoring;
// the bank only persists the result.)
type ExamRecord struct {
	ID         string            `json:"id"`
	Title      string            `json:"title"`
	ProblemIDs []string          `json:"problemIds"`
	Display    item.DisplayOrder `json:"display"`
	// TestTimeSeconds is the time limit in seconds; 0 means unlimited.
	TestTimeSeconds int `json:"testTimeSeconds"`
	// Groups names the presentation groups of §5.4's group service, in
	// order; each group lists problem IDs it contains.
	Groups []ExamGroup `json:"groups,omitempty"`
	// ItemParams holds calibrated IRT parameters per problem ID. An exam
	// with parameters for its problems is a calibrated pool and can be
	// delivered adaptively (internal/catdelivery); parameters start as
	// authored estimates and are refined by Recalibrate passes over
	// collected responses.
	ItemParams map[string]simulate.IRTParams `json:"itemParams,omitempty"`
}

// CalibratedPool returns the subset of the exam's problem IDs that carry
// IRT parameters, in exam order.
func (e *ExamRecord) CalibratedPool() []string {
	if len(e.ItemParams) == 0 {
		return nil
	}
	out := make([]string, 0, len(e.ItemParams))
	for _, pid := range e.ProblemIDs {
		if _, ok := e.ItemParams[pid]; ok {
			out = append(out, pid)
		}
	}
	return out
}

// ExamGroup is one §5.4 presentation group.
type ExamGroup struct {
	Name       string   `json:"name"`
	ProblemIDs []string `json:"problemIds"`
}

// New returns an empty single-shard store: one lock over the whole bank,
// the simplest profile. Use NewSharded for a high-concurrency bank.
func New() *Sharded { return NewSharded(1) }

func cloneExam(e *ExamRecord) *ExamRecord {
	cp := *e
	cp.ProblemIDs = append([]string(nil), e.ProblemIDs...)
	cp.Groups = make([]ExamGroup, len(e.Groups))
	for i, g := range e.Groups {
		cp.Groups[i] = ExamGroup{
			Name:       g.Name,
			ProblemIDs: append([]string(nil), g.ProblemIDs...),
		}
	}
	if e.ItemParams != nil {
		cp.ItemParams = make(map[string]simulate.IRTParams, len(e.ItemParams))
		for pid, params := range e.ItemParams {
			cp.ItemParams[pid] = params
		}
	}
	return &cp
}

// snapshot is the JSON persistence format.
type snapshot struct {
	Problems []*item.Problem `json:"problems"`
	Exams    []*ExamRecord   `json:"exams"`
	// AdaptiveSessions carries live/finished adaptive-session records so a
	// CAT sitting survives restart (see adaptive_record.go).
	AdaptiveSessions []*AdaptiveSessionRecord `json:"adaptiveSessions,omitempty"`
	// WalEpoch marks, for a journal's own snapshot, the compaction epoch it
	// folds up to (see Journal.epoch). Plain bank files leave it 0.
	WalEpoch int64 `json:"walEpoch,omitempty"`
}

// Load reads a store previously written by Save. Every problem is
// re-validated on the way in.
func Load(path string) (*Sharded, error) {
	s := New()
	if err := LoadInto(path, s); err != nil {
		return nil, err
	}
	return s, nil
}
