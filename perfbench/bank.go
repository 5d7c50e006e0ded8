package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
	"mineassess/pkg/api"
	"mineassess/pkg/client"
)

// The bank every workload authors during set-up.
const (
	bankProblems   = 1000
	bankConcepts   = 25 // problems cycle over concepts x the six cognition levels
	fixedExamID    = "fixed"
	poolExamID     = "pool"
	fixedConcepts  = 8 // the fixed exam's blueprint: 8 concepts x 5 levels, one each
	fixedLevels    = 5
	fixedQuestions = fixedConcepts * fixedLevels
)

// authored is the bank the benchmark writes, with what the simulated
// learners answer under: each problem's key, IRT parameters and distractor
// weights.
type authored struct {
	problems    []*item.Problem
	params      map[string]simulate.IRTParams
	key         map[string]string
	distractors map[string][]float64 // weight per option, 0 on the key
	fixed       []string             // the assembled fixed exam, in exam order
}

// authorBank builds the bank from the seed: problems spread across concepts
// and cognition levels, four options each, a drawn key, and 2PL parameters
// with discrimination in [0.8, 2.0] and standard-normal difficulty.
func authorBank(seed int64) (*authored, error) {
	rng := rand.New(rand.NewSource(seed))
	levels := cognition.Levels()
	a := &authored{
		params:      make(map[string]simulate.IRTParams, bankProblems),
		key:         make(map[string]string, bankProblems),
		distractors: make(map[string][]float64, bankProblems),
	}
	for i := 0; i < bankProblems; i++ {
		id := fmt.Sprintf("p%04d", i+1)
		ans := rng.Intn(4)
		p, err := item.NewMultipleChoice(id, fmt.Sprintf("Benchmark question %d", i+1),
			[]string{"first", "second", "third", "fourth"}, ans)
		if err != nil {
			return nil, err
		}
		p.Subject = fmt.Sprintf("Subject %d", i%5+1)
		p.ConceptID = fmt.Sprintf("c%02d", i%bankConcepts+1)
		p.Level = levels[(i/bankConcepts)%len(levels)]
		a.problems = append(a.problems, p)
		a.key[id] = p.Answer
		a.params[id] = simulate.IRTParams{
			A: 0.8 + 1.2*rng.Float64(),
			B: math.Max(-2.5, math.Min(2.5, rng.NormFloat64())),
		}
		w := make([]float64, 4)
		for j := range w {
			if j != ans {
				w[j] = 0.2 + rng.Float64()
			}
		}
		a.distractors[id] = w
	}
	return a, nil
}

// respond draws a learner's option on one problem: the key with the 2PL
// probability at ability theta, otherwise a weighted distractor.
func (a *authored) respond(rng *rand.Rand, pid string, theta float64) string {
	if rng.Float64() < a.params[pid].ProbCorrect(theta) {
		return a.key[pid]
	}
	w := a.distractors[pid]
	total := 0.0
	for _, x := range w {
		total += x
	}
	draw := rng.Float64() * total
	for j, x := range w {
		if x == 0 {
			continue
		}
		if draw -= x; draw <= 0 {
			return string(rune('A' + j))
		}
	}
	for j := len(w) - 1; ; j-- { // float rounding left draw > 0
		if w[j] > 0 {
			return string(rune('A' + j))
		}
	}
}

// writeSeedBank writes the one-problem bank examserver needs to boot (it
// refuses a bank with no exam); the journal takes it over on first boot.
func writeSeedBank(path string) error {
	st := bank.New()
	p, err := item.NewMultipleChoice("seed-q", "Seed question", []string{"yes", "no"}, 0)
	if err != nil {
		return err
	}
	p.ConceptID = "seed"
	if err := st.AddProblem(p); err != nil {
		return err
	}
	if err := st.AddExam(&bank.ExamRecord{ID: "seed", Title: "Seed", ProblemIDs: []string{"seed-q"}}); err != nil {
		return err
	}
	return st.Save(path)
}

// upload authors the bank over /v1: every problem through POST /v1/problems
// (spread over the connections), the fixed exam through
// POST /v1/exams:assemble, and the whole bank as one calibrated exam through
// POST /v1/exams.
func (a *authored) upload(ctx context.Context, conns []*conn) error {
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(a.problems) && ctx.Err() == nil; i += len(conns) {
				p := a.problems[i]
				if err := conns[c].call("problems.create", func(sdk *client.Client) error { return sdk.CreateProblem(p) }); err != nil {
					errs[c] = fmt.Errorf("author %s: %w", p.ID, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	req := api.AssembleExamRequest{ID: fixedExamID, Title: "Benchmark fixed form"}
	levels := cognition.Levels()
	for c := 0; c < fixedConcepts; c++ {
		for _, lv := range levels[:fixedLevels] {
			req.Require = append(req.Require, api.BlueprintCell{ConceptID: fmt.Sprintf("c%02d", c+1), Level: lv, Count: 1})
		}
	}
	var rec *bank.ExamRecord
	err := conns[0].call("exams.assemble", func(sdk *client.Client) (err error) {
		rec, err = sdk.AssembleExam(req)
		return err
	})
	if err != nil {
		return fmt.Errorf("assemble %s: %w", fixedExamID, err)
	}
	if len(rec.ProblemIDs) != fixedQuestions {
		return fmt.Errorf("assembled %s has %d questions, want %d", fixedExamID, len(rec.ProblemIDs), fixedQuestions)
	}
	a.fixed = rec.ProblemIDs
	pool := &bank.ExamRecord{ID: poolExamID, Title: "Benchmark calibrated pool", ItemParams: a.params}
	for _, p := range a.problems {
		pool.ProblemIDs = append(pool.ProblemIDs, p.ID)
	}
	if err := conns[0].call("exams.create", func(sdk *client.Client) error { return sdk.CreateExam(pool) }); err != nil {
		return fmt.Errorf("create %s: %w", poolExamID, err)
	}
	return nil
}
