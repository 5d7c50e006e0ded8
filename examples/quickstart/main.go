// Quickstart: author a small exam, administer it to a simulated class, run
// the paper's analysis model, and print the advice a teacher would see.
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
	// Any bank.Storage backend plugs into the pipeline; the sharded store
	// is the production choice (core.New() gives a single-shard one).
	pipe := core.NewWith(bank.NewSharded(0))

	// 1. Author problems: a spread of styles, concepts and Bloom levels.
	concepts := cognition.NumberedConcepts(2)
	mc, err := item.NewMultipleChoice("q1",
		"Which SCORM file describes the whole course structure?",
		[]string{"imsmanifest.xml", "apiwrapper.js", "lesson.html", "styles.css"}, 0)
	if err != nil {
		return err
	}
	mc.ConceptID, mc.Level, mc.Subject = concepts[0].ID, cognition.Knowledge, "SCORM"

	tf := &item.Problem{
		ID: "q2", Style: item.TrueFalse,
		Question: "The Item Discrimination Index D equals PH minus PL.",
		Answer:   "true", ConceptID: concepts[0].ID,
		Level: cognition.Comprehension, Subject: "Item analysis",
	}
	cloze := &item.Problem{
		ID: "q3", Style: item.Completion,
		Question: "With R=800 and N=1000 the Item Difficulty Index P is ____.",
		Blanks:   [][]string{{"0.8", "80%"}}, ConceptID: concepts[1].ID,
		Level: cognition.Application, Subject: "Item analysis",
	}
	extra, err := item.NewMultipleChoice("q4",
		"Kelly's optimal upper/lower group percentage is:",
		[]string{"20%", "25%", "27%", "33%"}, 2)
	if err != nil {
		return err
	}
	extra.ConceptID, extra.Level, extra.Subject = concepts[1].ID, cognition.Knowledge, "Item analysis"

	for _, p := range []*item.Problem{mc, tf, cloze, extra} {
		if err := pipe.Store().AddProblem(p); err != nil {
			return err
		}
	}

	// 2. Assemble the exam.
	draft := authoring.NewExamDraft("quiz1", "Quickstart quiz")
	if err := draft.Add("q1", "q2", "q3", "q4"); err != nil {
		return err
	}
	rec, err := draft.Finalize(pipe.Store())
	if err != nil {
		return err
	}
	rec.TestTimeSeconds = 900
	if err := pipe.Store().AddExam(rec); err != nil {
		return err
	}

	// 3. Administer to a simulated class of 44 (the paper's class size).
	res, err := pipe.RunSimulated("quiz1", core.SimulationConfig{
		Class: simulate.PopulationConfig{N: 44, Mean: 0, SD: 1, Seed: 2004},
		Seed:  1,
	})
	if err != nil {
		return err
	}

	// 4. Analyze with the paper's 25% group split and print the report.
	a, err := pipe.Analyze(res, analysis.Options{})
	if err != nil {
		return err
	}
	out, err := pipe.Report(res, a, concepts)
	if err != nil {
		return err
	}
	fmt.Print(out)

	// 5. Close the loop: write measured indices back into the bank.
	n, err := pipe.ApplyMeasurements(a)
	if err != nil {
		return err
	}
	fmt.Printf("\nrecorded measured difficulty/discrimination on %d problems\n", n)
	return nil
}
