package loadgen

import (
	"errors"
	"fmt"

	"mineassess/internal/bank"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
	"mineassess/pkg/client"
)

// The harness's exam IDs, and the difficulty spread of its items: pool
// difficulties cover [-difficultySpread, difficultySpread], fixed-form ones
// half that range.
const (
	fixedExamID      = "loadgen-fixed"
	catExamID        = "loadgen-cat"
	difficultySpread = 3.0
)

// BankConfig describes the two exams the harness drives: a fixed-form exam
// for linear sittings and SSE watchers, and a calibrated pool for adaptive
// sittings.
type BankConfig struct {
	// Questions is the fixed-form exam's length.
	Questions int
	// PoolSize is the calibrated adaptive pool's size.
	PoolSize int
	// Discrimination is every item's discrimination a.
	Discrimination float64
}

// withDefaults fills zero fields.
func (b BankConfig) withDefaults() BankConfig {
	if b.Questions <= 0 {
		b.Questions = 10
	}
	if b.PoolSize <= 0 {
		b.PoolSize = 60
	}
	if b.Discrimination <= 0 {
		b.Discrimination = 1.6
	}
	return b
}

// SeededBank is what EnsureBank hands back: the exam IDs plus the item
// parameters the simulated learners answer under (the learner model and
// the calibration the server selects items with are the same 3PL
// parameters, so the cohort behaves like the population the pool was
// calibrated for).
type SeededBank struct {
	FixedExamID string
	FixedOrder  []string
	FixedParams map[string]simulate.IRTParams
	CATExamID   string
	CATParams   map[string]simulate.IRTParams
}

// EnsureBank creates the harness's exams through the /v1 authoring API,
// tolerating a server that already holds them (re-runs against a
// long-lived target are idempotent). Everything goes through the client so
// remote and in-process targets are seeded by the identical code path.
func EnsureBank(c *client.Client, cfg BankConfig) (*SeededBank, error) {
	cfg = cfg.withDefaults()
	sb := &SeededBank{
		FixedExamID: fixedExamID,
		FixedParams: make(map[string]simulate.IRTParams, cfg.Questions),
		CATExamID:   catExamID,
		CATParams:   make(map[string]simulate.IRTParams, cfg.PoolSize),
	}

	// Fixed-form exam: difficulties spread evenly, correct option A.
	fixedIDs := make([]string, 0, cfg.Questions)
	for i := 0; i < cfg.Questions; i++ {
		id := fmt.Sprintf("%s-q%03d", fixedExamID, i+1)
		b := -difficultySpread/2 + difficultySpread*float64(i)/float64(max(cfg.Questions-1, 1))
		if err := ensureProblem(c, id, "load harness fixed-form item"); err != nil {
			return nil, err
		}
		sb.FixedParams[id] = simulate.IRTParams{A: cfg.Discrimination, B: b}
		fixedIDs = append(fixedIDs, id)
	}
	if err := ensureExam(c, &bank.ExamRecord{
		ID: fixedExamID, Title: "Load harness fixed form", ProblemIDs: fixedIDs,
	}); err != nil {
		return nil, err
	}
	sb.FixedOrder = fixedIDs

	// Calibrated adaptive pool, with ItemParams stored on the exam so
	// /v1/adaptive-sessions accepts it.
	catIDs := make([]string, 0, cfg.PoolSize)
	catParams := make(map[string]simulate.IRTParams, cfg.PoolSize)
	for i := 0; i < cfg.PoolSize; i++ {
		id := fmt.Sprintf("%s-q%03d", catExamID, i+1)
		b := -difficultySpread + 2*difficultySpread*float64(i)/float64(max(cfg.PoolSize-1, 1))
		if err := ensureProblem(c, id, "load harness adaptive pool item"); err != nil {
			return nil, err
		}
		catParams[id] = simulate.IRTParams{A: cfg.Discrimination, B: b}
		catIDs = append(catIDs, id)
	}
	if err := ensureExam(c, &bank.ExamRecord{
		ID: catExamID, Title: "Load harness adaptive pool",
		ProblemIDs: catIDs, ItemParams: catParams,
	}); err != nil {
		return nil, err
	}
	sb.CATParams = catParams
	return sb, nil
}

// ensureProblem creates one MC problem, treating "already exists" as
// success.
func ensureProblem(c *client.Client, id, subject string) error {
	p, err := item.NewMultipleChoice(id, subject, []string{"alpha", "beta", "gamma", "delta"}, 0)
	if err != nil {
		return err
	}
	if err := c.CreateProblem(p); err != nil && !isCode(err, client.CodeProblemExists) {
		return fmt.Errorf("loadgen: seed problem %s: %w", id, err)
	}
	return nil
}

// ensureExam creates one exam, treating "already exists" as success.
func ensureExam(c *client.Client, rec *bank.ExamRecord) error {
	if err := c.CreateExam(rec); err != nil && !isCode(err, client.CodeExamExists) {
		return fmt.Errorf("loadgen: seed exam %s: %w", rec.ID, err)
	}
	return nil
}

// isCode reports whether err is an APIError carrying the given code.
func isCode(err error, code client.Code) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Code == code
}
