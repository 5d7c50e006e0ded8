// Feedbackloop demonstrates the closed teaching loop the paper motivates:
// administer → analyze → statistics → per-student feedback → fix the
// flagged question (with revision history) → re-administer and compare.
package main

import (
	"fmt"
	"log"

	"mineassess/internal/analysis"
	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/core"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The fix-the-question loop (update + revision history) runs over the
	// sharded backend.
	pipe := core.NewWith(bank.NewSharded(0))
	concepts := cognition.NumberedConcepts(3)

	// Author a 9-question exam; question q9 gets a deliberately absurd
	// distractor set so the analysis flags it.
	var ids []string
	for i := 1; i <= 9; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%d", i),
			fmt.Sprintf("Question %d about concept %d", i, i%3+1),
			[]string{"right", "plausible", "plausible too", "way off"}, 0)
		if err != nil {
			return err
		}
		p.ConceptID = concepts[i%3].ID
		p.Level = cognition.Levels()[i%4]
		if err := pipe.Store().AddProblem(p); err != nil {
			return err
		}
		ids = append(ids, p.ID)
	}
	draft := authoring.NewExamDraft("loop", "Feedback loop exam")
	if err := draft.Add(ids...); err != nil {
		return err
	}
	rec, err := draft.Finalize(pipe.Store())
	if err != nil {
		return err
	}
	if err := pipe.Store().AddExam(rec); err != nil {
		return err
	}

	// First administration.
	cfg := core.SimulationConfig{
		Class: simulate.PopulationConfig{N: 60, SD: 1, Seed: 31},
		Seed:  32,
	}
	res, err := pipe.RunSimulated("loop", cfg)
	if err != nil {
		return err
	}
	a, err := pipe.Analyze(res, analysis.Options{})
	if err != nil {
		return err
	}

	// Psychometric summary and feedback.
	statsOut, err := pipe.StatisticsReport(res, a)
	if err != nil {
		return err
	}
	fmt.Print(statsOut)
	fmt.Println()
	fbOut, err := pipe.FeedbackReport(res, a, 3)
	if err != nil {
		return err
	}
	fmt.Print(fbOut)
	fmt.Println()

	// Persist measurements, then fix the weakest question.
	if _, err := pipe.ApplyMeasurements(a); err != nil {
		return err
	}
	worst := a.Questions[0]
	for _, q := range a.Questions {
		if q.D < worst.D {
			worst = q
		}
	}
	fmt.Printf("weakest question: %s (D=%.2f, %s)\n",
		worst.ProblemID, worst.D, worst.Signal.Advice())
	stored, err := pipe.Store().Problem(worst.ProblemID)
	if err != nil {
		return err
	}
	p := stored.Clone() // edit a copy: the bank shares stored problems
	p.Question += " (reworded after analysis)"
	if err := pipe.Store().UpdateProblem(p); err != nil {
		return err
	}
	fmt.Printf("problem %s now at version %d (history kept: %d revision(s))\n",
		p.ID, pipe.Store().Version(p.ID), len(pipe.Store().History(p.ID)))

	// Second administration with calibrated difficulties.
	res2, err := pipe.RunSimulated("loop", core.SimulationConfig{
		Class: simulate.PopulationConfig{N: 60, SD: 1, Seed: 41},
		Seed:  42,
	})
	if err != nil {
		return err
	}
	a2, err := pipe.Analyze(res2, analysis.Options{})
	if err != nil {
		return err
	}
	c1 := a.CountBySignal()
	c2 := a2.CountBySignal()
	fmt.Printf("signals before: %dG/%dY/%dR — after recalibrated run: %dG/%dY/%dR\n",
		c1[analysis.SignalGreen], c1[analysis.SignalYellow], c1[analysis.SignalRed],
		c2[analysis.SignalGreen], c2[analysis.SignalYellow], c2[analysis.SignalRed])
	return nil
}
