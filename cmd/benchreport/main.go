// Command benchreport regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index E1-E17) and prints
// paper-reported values next to measured ones. Absolute agreement is
// expected for the arithmetic artifacts (the paper's matrices are replayed
// verbatim); simulated artifacts are judged on shape.
//
// Usage:
//
//	benchreport [-experiment E8] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"mineassess/internal/adaptive"
	"mineassess/internal/analysis"
	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/internal/report"
	"mineassess/internal/scorm"
	"mineassess/internal/simulate"
	"mineassess/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

type experiment struct {
	id    string
	title string
	run   func(seed int64) error
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	only := fs.String("experiment", "", "run a single experiment (e.g. E8)")
	seed := fs.Int64("seed", 7, "seed for simulated experiments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	experiments := []experiment{
		{"E1", "Table 1: problem attribute table", runE1},
		{"E2", "Example 1 / Rule 1: option allure", runE2},
		{"E3", "Example 2 / Rule 2: option not well defined", runE3},
		{"E4", "Example 3 / Rule 3: low group lacks concept", runE4},
		{"E5", "Example 4 / Rule 4: both groups lack concept", runE5},
		{"E6", "Table 2: rule-to-status matrix", runE6},
		{"E7", "Table 3: signal thresholds", runE7},
		{"E8", "Figure 2 worked question no.2", runE8},
		{"E9", "Figure 2 worked question no.6", runE9},
		{"E10", "Figure 2: whole-test signal board", runE10},
		{"E11", "Figure 4.2.1(1): time vs answered questions", runE11},
		{"E12", "Figure 4.2.1(2): score vs difficulty", runE12},
		{"E13", "Table 4: two-way specification table", runE13},
		{"E14", "4.2.3: concept lost / sum relation / paint", runE14},
		{"E15", "3.4 III: instructional sensitivity index", runE15},
		{"E16", "5.5: SCORM output round trip", runE16},
		{"E17", "6: adaptive vs fixed test (future work)", runE17},
		{"A1", "ablation: group fraction 25% vs Kelly 27% vs 33%", runA1},
		{"A2", "ablation: group D vs point-biserial", runA2},
	}
	ran := 0
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		fmt.Printf("=== %s — %s ===\n", e.id, e.title)
		if err := e.run(*seed); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	return nil
}

// Paper fixtures (§4.1.2 and Figure 2).

func example1() *analysis.OptionTable {
	return analysis.FromCounts("ex1", "A", []string{"A", "B", "C", "D", "E"},
		map[string]int{"A": 12, "B": 2, "C": 0, "D": 3, "E": 3},
		map[string]int{"A": 6, "B": 4, "C": 0, "D": 5, "E": 5}, 20, 20)
}

func example2() *analysis.OptionTable {
	return analysis.FromCounts("ex2", "C", []string{"A", "B", "C", "D", "E"},
		map[string]int{"A": 1, "B": 2, "C": 10, "D": 0, "E": 7},
		map[string]int{"A": 2, "B": 2, "C": 13, "D": 1, "E": 2}, 20, 20)
}

func example3() *analysis.OptionTable {
	return analysis.FromCounts("ex3", "A", []string{"A", "B", "C", "D", "E"},
		map[string]int{"A": 15, "B": 2, "C": 2, "D": 0, "E": 1},
		map[string]int{"A": 5, "B": 4, "C": 5, "D": 4, "E": 2}, 20, 20)
}

func example4() *analysis.OptionTable {
	return analysis.FromCounts("ex4", "E", []string{"A", "B", "C", "D", "E"},
		map[string]int{"A": 4, "B": 4, "C": 4, "D": 2, "E": 6},
		map[string]int{"A": 5, "B": 4, "C": 5, "D": 4, "E": 2}, 20, 20)
}

func workedQ2() *analysis.OptionTable {
	return analysis.FromCounts("no2", "C", []string{"A", "B", "C", "D"},
		map[string]int{"A": 0, "B": 0, "C": 10, "D": 1},
		map[string]int{"A": 3, "B": 2, "C": 4, "D": 2}, 11, 11)
}

func workedQ6() *analysis.OptionTable {
	return analysis.FromCounts("no6", "D", []string{"A", "B", "C", "D"},
		map[string]int{"A": 1, "B": 1, "C": 4, "D": 5},
		map[string]int{"A": 0, "B": 2, "C": 4, "D": 4}, 11, 11)
}

func runE1(int64) error {
	fmt.Println("Measured rendering of the paper's Table 1 layout (Example 1 data):")
	fmt.Print(report.OptionTable(example1()))
	return nil
}

func ruleLine(name string, res analysis.RuleResult, paperMatch bool, detail string) {
	status := "no match"
	if res.Matched {
		status = "MATCH"
		if len(res.Options) > 0 {
			status += " on " + strings.Join(res.Options, ",")
		}
	}
	agree := "agrees"
	if res.Matched != paperMatch {
		agree = "DISAGREES"
	}
	fmt.Printf("%s: paper says %s; measured %s (%s)\n", name, detail, status, agree)
}

func runE2(int64) error {
	ruleLine("Rule 1 on Example 1", analysis.EvaluateRule1(example1()), true,
		"option C's allure is low")
	return nil
}

func runE3(int64) error {
	ruleLine("Rule 2 on Example 2", analysis.EvaluateRule2(example2()), true,
		"options C and E are not well defined")
	return nil
}

func runE4(int64) error {
	t := example3()
	lm, lmin := t.LowMaxMin()
	fmt.Printf("paper: LM=5 Lm=2 LS=20, |LM-Lm|=3 <= 4; measured: LM=%d Lm=%d LS=%d\n",
		lm, lmin, t.LS())
	ruleLine("Rule 3 on Example 3", analysis.EvaluateRule3(t), true,
		"low score group lacks the concept")
	return nil
}

func runE5(int64) error {
	t := example4()
	hm, hmin := t.HighMaxMin()
	fmt.Printf("paper: HM=6 Hm=2 HS=20; measured: HM=%d Hm=%d HS=%d\n", hm, hmin, t.HS())
	ruleLine("Rule 4 on Example 4", analysis.EvaluateRule4(t), true,
		"both groups lack the concept")
	return nil
}

func runE6(int64) error {
	matrix := analysis.StatusMatrix()
	fmt.Println("Rule -> indicated statuses (paper's Table 2 V cells):")
	for _, rule := range []analysis.RuleID{analysis.Rule1, analysis.Rule2, analysis.Rule3, analysis.Rule4} {
		var names []string
		for _, st := range matrix[rule] {
			names = append(names, st.String())
		}
		fmt.Printf("  %s: %s\n", rule, strings.Join(names, "; "))
	}
	return nil
}

func runE7(int64) error {
	fmt.Println("D sweep -> signal (paper: >=0.3 green Good, 0.2-0.29 yellow Fix, <=0.19 red):")
	none := [4]analysis.RuleResult{{Rule: analysis.Rule1}, {Rule: analysis.Rule2},
		{Rule: analysis.Rule3}, {Rule: analysis.Rule4}}
	for _, d := range []float64{0.55, 0.35, 0.30, 0.29, 0.25, 0.20, 0.19, 0.10, 0.00} {
		sig := analysis.EvaluateSignal(d, none)
		fmt.Printf("  D=%.2f -> %-6s (%s)\n", d, sig, sig.Advice())
	}
	return nil
}

func runE8(int64) error {
	t := workedQ2()
	rules := analysis.EvaluateRules(t)
	sig := analysis.EvaluateSignal(t.Discrimination(), rules)
	fmt.Println("paper:    PH=0.91 PL=0.36 D=0.55 P=0.635 signal=Green")
	fmt.Printf("measured: PH=%.2f PL=%.2f D=%.2f P=%.3f signal=%s\n",
		t.PH(), t.PL(), t.Discrimination(), t.Difficulty(), sig)
	return nil
}

func runE9(int64) error {
	t := workedQ6()
	rules := analysis.EvaluateRules(t)
	sig := analysis.EvaluateSignal(t.Discrimination(), rules)
	fmt.Println("paper:    PH=0.45 PL=0.36 D=0.09 P=0.41 rule1 flags option A")
	fmt.Printf("measured: PH=%.2f PL=%.2f D=%.2f P=%.2f signal=%s rule1=%v on %v\n",
		t.PH(), t.PL(), t.Discrimination(), t.Difficulty(), sig,
		rules[0].Matched, rules[0].Options)
	return nil
}

// simulatedClass runs a 10-question exam over a simulated class of 44.
func simulatedClass(seed int64, n, questions int) (*analysis.ExamResult, *analysis.ExamAnalysis, error) {
	var specs []simulate.ItemSpec
	for i := 0; i < questions; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%02d", i+1), "sim",
			[]string{"1", "2", "3", "4"}, i%4)
		if err != nil {
			return nil, nil, err
		}
		p.Level = cognition.Levels()[i%cognition.NumLevels]
		p.ConceptID = fmt.Sprintf("c%d", i%5+1)
		b := -1.5 + 3*float64(i)/float64(questions-1)
		specs = append(specs, simulate.ItemSpec{
			Problem: p,
			Params:  simulate.IRTParams{A: 1.6, B: b},
		})
	}
	pop, err := simulate.NewPopulation(simulate.PopulationConfig{N: n, SD: 1, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	res, err := simulate.Run(simulate.ExamConfig{
		ExamID: "simclass", Items: specs, Seed: seed + 1,
		TestTime: time.Duration(questions) * 90 * time.Second,
	}, pop)
	if err != nil {
		return nil, nil, err
	}
	a, err := analysis.Analyze(res, analysis.Options{})
	if err != nil {
		return nil, nil, err
	}
	return res, a, nil
}

func runE10(seed int64) error {
	_, a, err := simulatedClass(seed, 44, 10)
	if err != nil {
		return err
	}
	fmt.Print(report.SignalBoard(a))
	return nil
}

func runE11(seed int64) error {
	res, _, err := simulatedClass(seed, 44, 10)
	if err != nil {
		return err
	}
	pts := analysis.TimeCurve(res, 40)
	fmt.Print(report.TimeCurve(pts, 8))
	fmt.Print(report.TimeSufficiency(analysis.AnalyzeTime(res)))
	fmt.Println("expected shape: monotone rise toward the question count; completion depends on the limit")
	return nil
}

func runE12(seed int64) error {
	res, a, err := simulatedClass(seed, 120, 20)
	if err != nil {
		return err
	}
	grid := analysis.ScoreDifficulty(res, a, 8, 6)
	fmt.Print(report.ScoreDifficulty(grid))
	fmt.Println("expected shape: low-score columns concentrate in easy (bottom) rows")
	return nil
}

func coverageFixture() (*cognition.TwoWayTable, error) {
	table := cognition.NewTwoWayTable(cognition.NumberedConcepts(5))
	levels := cognition.Levels()
	id := 0
	// A pyramid: more questions at lower cognition levels, concept 4 left
	// uncovered to demonstrate concept-lost detection.
	for li, count := range []int{8, 6, 5, 3, 2, 1} {
		for i := 0; i < count; i++ {
			concept := fmt.Sprintf("c%d", []int{1, 2, 3, 5}[id%4])
			if err := table.Add(fmt.Sprintf("q%03d", id), concept, levels[li]); err != nil {
				return nil, err
			}
			id++
		}
	}
	return table, nil
}

func runE13(int64) error {
	table, err := coverageFixture()
	if err != nil {
		return err
	}
	fmt.Print(report.TwoWayTable(table))
	return nil
}

func runE14(int64) error {
	table, err := coverageFixture()
	if err != nil {
		return err
	}
	fmt.Print(report.Coverage(table.Analyze()))
	fmt.Println("expected: concept c4 lost; pyramid satisfies SUM(A) >= ... >= SUM(F)")
	return nil
}

func runE15(seed int64) error {
	var specs []simulate.ItemSpec
	for i := 0; i < 10; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%02d", i+1), "isi",
			[]string{"1", "2", "3", "4"}, 0)
		if err != nil {
			return err
		}
		p.Level = cognition.Knowledge
		specs = append(specs, simulate.ItemSpec{Problem: p,
			Params: simulate.IRTParams{A: 1.5, B: 0.5}})
	}
	pop, err := simulate.NewPopulation(simulate.PopulationConfig{N: 80, SD: 1, Seed: seed})
	if err != nil {
		return err
	}
	pre, err := simulate.Run(simulate.ExamConfig{ExamID: "pre", Items: specs, Seed: seed + 1}, pop)
	if err != nil {
		return err
	}
	post, err := simulate.Run(simulate.ExamConfig{ExamID: "post", Items: specs, Seed: seed + 2},
		pop.Shifted(1.0)) // teaching raises ability by 1 SD
	if err != nil {
		return err
	}
	rep, err := analysis.InstructionalSensitivity(pre, post)
	if err != nil {
		return err
	}
	var order []string
	for _, p := range pre.Problems {
		order = append(order, p.ID)
	}
	fmt.Print(report.Sensitivity(rep, order))
	fmt.Println("expected shape: positive ISI on every taught item")
	return nil
}

func runE16(int64) error {
	store := bank.New()
	var ids []string
	for i := 0; i < 50; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%03d", i+1), "packaged",
			[]string{"1", "2", "3", "4"}, i%4)
		if err != nil {
			return err
		}
		p.Level = cognition.Knowledge
		if err := store.AddProblem(p); err != nil {
			return err
		}
		ids = append(ids, p.ID)
	}
	draft := authoring.NewExamDraft("packexam", "Packaged exam")
	if err := draft.Add(ids...); err != nil {
		return err
	}
	rec, err := draft.Finalize(store)
	if err != nil {
		return err
	}
	problems, err := store.Problems(rec.ProblemIDs)
	if err != nil {
		return err
	}
	pkg, err := scorm.BuildPackage(rec, problems)
	if err != nil {
		return err
	}
	var buf strings.Builder
	if err := pkg.WriteZip(&nopWriter{&buf}); err != nil {
		return err
	}
	back, err := scorm.ReadZip([]byte(buf.String()))
	if err != nil {
		return err
	}
	fmt.Printf("50-item exam -> %d package files -> zip %d bytes -> parsed manifest %q with %d resources, %d missing files\n",
		len(pkg.Files), buf.Len(), back.Manifest.Identifier,
		len(back.Manifest.Resources.Resources), len(back.MissingFiles()))
	return nil
}

func runA1(seed int64) error {
	res, _, err := simulatedClass(seed, 200, 20)
	if err != nil {
		return err
	}
	points, err := analysis.FractionSweep(res, []float64{
		analysis.DefaultGroupFraction, analysis.KellyGroupFraction, 0.33,
	})
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Printf("fraction %s (groups of %d): mean D %.3f, %dG/%dY/%dR\n",
			p.Fraction, p.GroupSize, p.MeanD,
			p.BySignal[analysis.SignalGreen], p.BySignal[analysis.SignalYellow],
			p.BySignal[analysis.SignalRed])
	}
	fmt.Println("expected shape: extreme-group D shrinks as the fraction widens")
	return nil
}

func runA2(seed int64) error {
	res, a, err := simulatedClass(seed, 200, 20)
	if err != nil {
		return err
	}
	st, err := stats.Compute(res)
	if err != nil {
		return err
	}
	r, err := stats.CompareDiscrimination(a, st)
	if err != nil {
		return err
	}
	fmt.Printf("KR-20 reliability: %.3f\n", st.KR20)
	fmt.Printf("correlation of upper/lower-group D with point-biserial: r = %.3f\n", r)
	fmt.Println("expected shape: strong positive agreement (the paper's simple index ranks items like the full-information statistic)")
	return nil
}

// nopWriter adapts a strings.Builder to io.Writer for the zip stream.
type nopWriter struct{ b *strings.Builder }

func (w *nopWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

func runE17(seed int64) error {
	pool := adaptive.UniformPool(200, 1.8, 3)
	rng := rand.New(rand.NewSource(seed))
	abilities := make([]float64, 100)
	for i := range abilities {
		abilities[i] = rng.NormFloat64()
	}
	for _, maxItems := range []int{10, 20, 40} {
		res, err := adaptive.Compare(adaptive.Config{MaxItems: maxItems}, pool, abilities, seed)
		if err != nil {
			return err
		}
		fmt.Printf("length %2d: adaptive RMSE %.3f vs fixed RMSE %.3f (adaptive wins: %v)\n",
			maxItems, res.AdaptiveRMSE, res.FixedRMSE, res.AdaptiveRMSE < res.FixedRMSE)
	}
	res, err := adaptive.Compare(adaptive.Config{MaxItems: 60, TargetSE: 0.35},
		pool, abilities, seed)
	if err != nil {
		return err
	}
	fmt.Printf("SE-targeted: adaptive used %.1f items on average vs fixed %d at RMSE %.3f vs %.3f\n",
		res.AdaptiveItems, 60, res.AdaptiveRMSE, res.FixedRMSE)
	fmt.Println("expected shape: adaptive matches or beats fixed accuracy with fewer items")
	return nil
}
