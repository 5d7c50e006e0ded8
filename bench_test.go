package mineassess

// One benchmark per experiment in DESIGN.md's index (E1-E17). Each bench
// exercises the code path that regenerates the corresponding table or
// figure; correctness is asserted by the package tests, the benches measure
// the cost of regeneration.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"mineassess/internal/adaptive"
	"mineassess/internal/analysis"
	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/delivery"
	"mineassess/internal/feedback"
	"mineassess/internal/item"
	"mineassess/internal/report"
	"mineassess/internal/scorm"
	"mineassess/internal/simulate"
	"mineassess/internal/stats"
)

func paperTable(id, correct string, high, low map[string]int, size int) *analysis.OptionTable {
	return analysis.FromCounts(id, correct, []string{"A", "B", "C", "D", "E"},
		high, low, size, size)
}

func benchExample1() *analysis.OptionTable {
	return paperTable("ex1", "A",
		map[string]int{"A": 12, "B": 2, "C": 0, "D": 3, "E": 3},
		map[string]int{"A": 6, "B": 4, "C": 0, "D": 5, "E": 5}, 20)
}

// benchClass builds a simulated class result with the given shape.
func benchClass(b *testing.B, students, questions int) (*analysis.ExamResult, *analysis.ExamAnalysis) {
	b.Helper()
	specs := make([]simulate.ItemSpec, 0, questions)
	for i := 0; i < questions; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%03d", i+1), "bench",
			[]string{"1", "2", "3", "4"}, i%4)
		if err != nil {
			b.Fatal(err)
		}
		p.Level = cognition.Levels()[i%cognition.NumLevels]
		p.ConceptID = fmt.Sprintf("c%d", i%5+1)
		specs = append(specs, simulate.ItemSpec{
			Problem: p,
			Params:  simulate.IRTParams{A: 1.6, B: -1.5 + 3*float64(i)/float64(questions)},
		})
	}
	pop, err := simulate.NewPopulation(simulate.PopulationConfig{N: students, SD: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := simulate.Run(simulate.ExamConfig{
		ExamID: "bench", Items: specs, Seed: 2,
		TestTime: time.Duration(questions) * time.Minute,
	}, pop)
	if err != nil {
		b.Fatal(err)
	}
	a, err := analysis.Analyze(res, analysis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return res, a
}

// E1 — Table 1: building the option table from a raw class result.
func BenchmarkTable1OptionTable(b *testing.B) {
	res, a := benchClass(b, 44, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := analysis.BuildOptionTable(res, a.Groups, "q001")
		if err != nil {
			b.Fatal(err)
		}
		_ = report.OptionTable(tab)
	}
}

// E2-E5 — the four diagnostic rules on the paper's matrices.
func BenchmarkRule1(b *testing.B) {
	tab := benchExample1()
	for i := 0; i < b.N; i++ {
		_ = analysis.EvaluateRule1(tab)
	}
}

func BenchmarkRule2(b *testing.B) {
	tab := paperTable("ex2", "C",
		map[string]int{"A": 1, "B": 2, "C": 10, "D": 0, "E": 7},
		map[string]int{"A": 2, "B": 2, "C": 13, "D": 1, "E": 2}, 20)
	for i := 0; i < b.N; i++ {
		_ = analysis.EvaluateRule2(tab)
	}
}

func BenchmarkRule3(b *testing.B) {
	tab := paperTable("ex3", "A",
		map[string]int{"A": 15, "B": 2, "C": 2, "D": 0, "E": 1},
		map[string]int{"A": 5, "B": 4, "C": 5, "D": 4, "E": 2}, 20)
	for i := 0; i < b.N; i++ {
		_ = analysis.EvaluateRule3(tab)
	}
}

func BenchmarkRule4(b *testing.B) {
	tab := paperTable("ex4", "E",
		map[string]int{"A": 4, "B": 4, "C": 4, "D": 2, "E": 6},
		map[string]int{"A": 5, "B": 4, "C": 5, "D": 4, "E": 2}, 20)
	for i := 0; i < b.N; i++ {
		_ = analysis.EvaluateRule4(tab)
	}
}

// E6 — Table 2: deriving statuses from matched rules.
func BenchmarkStatusMatrix(b *testing.B) {
	tab := benchExample1()
	rules := analysis.EvaluateRules(tab)
	for i := 0; i < b.N; i++ {
		_ = analysis.StatusesFor(rules)
	}
}

// E7 — Table 3: the signal policy over a D sweep.
func BenchmarkSignal(b *testing.B) {
	tab := benchExample1()
	rules := analysis.EvaluateRules(tab)
	for i := 0; i < b.N; i++ {
		for d := 0.0; d < 1.0; d += 0.01 {
			_ = analysis.EvaluateSignal(d, rules)
		}
	}
}

// E8/E9 — the worked questions end to end (tabulate + indices + rules +
// signal) at the paper's class size.
func BenchmarkWorkedQuestions(b *testing.B) {
	res, a := benchClass(b, 44, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range []string{"q001", "q002"} {
			tab, err := analysis.BuildOptionTable(res, a.Groups, q)
			if err != nil {
				b.Fatal(err)
			}
			rules := analysis.EvaluateRules(tab)
			_ = analysis.EvaluateSignal(tab.Discrimination(), rules)
		}
	}
}

// E10 — Figure 2: full analysis + signal board for a 10-question class.
func BenchmarkSignalBoard(b *testing.B) {
	res, _ := benchClass(b, 44, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := analysis.Analyze(res, analysis.Options{})
		if err != nil {
			b.Fatal(err)
		}
		_ = report.SignalBoard(a)
	}
}

// E11 — the time-vs-answered figure.
func BenchmarkTimeCurve(b *testing.B) {
	res, _ := benchClass(b, 100, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := analysis.TimeCurve(res, 40)
		_ = report.TimeCurve(pts, 8)
	}
}

// E12 — the score-vs-difficulty distribution.
func BenchmarkScoreDifficulty(b *testing.B) {
	res, a := benchClass(b, 120, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid := analysis.ScoreDifficulty(res, a, 8, 6)
		_ = report.ScoreDifficulty(grid)
	}
}

// E13 — Table 4: two-way specification table construction + rendering.
func BenchmarkTwoWayTable(b *testing.B) {
	concepts := cognition.NumberedConcepts(10)
	for i := 0; i < b.N; i++ {
		tab := cognition.NewTwoWayTable(concepts)
		for q := 0; q < 60; q++ {
			if err := tab.Add(fmt.Sprintf("q%03d", q),
				fmt.Sprintf("c%d", q%10+1),
				cognition.Levels()[q%cognition.NumLevels]); err != nil {
				b.Fatal(err)
			}
		}
		_ = report.TwoWayTable(tab)
	}
}

// E14 — the §4.2.3 coverage analyses.
func BenchmarkCoverageAnalysis(b *testing.B) {
	tab := cognition.NewTwoWayTable(cognition.NumberedConcepts(10))
	for q := 0; q < 60; q++ {
		if err := tab.Add(fmt.Sprintf("q%03d", q),
			fmt.Sprintf("c%d", q%9+1), // concept 10 lost
			cognition.Levels()[q%cognition.NumLevels]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Analyze()
	}
}

// E15 — the Instructional Sensitivity Index over pre/post sittings.
func BenchmarkSensitivity(b *testing.B) {
	pre, _ := benchClass(b, 80, 10)
	post, _ := benchClass(b, 80, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.InstructionalSensitivity(pre, post); err != nil {
			b.Fatal(err)
		}
	}
}

// E16 — SCORM packaging of a 50-item exam, zip round trip included.
func BenchmarkSCORMPackage(b *testing.B) {
	store := bank.New()
	var ids []string
	for i := 0; i < 50; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%03d", i+1), "bench",
			[]string{"1", "2", "3", "4"}, i%4)
		if err != nil {
			b.Fatal(err)
		}
		p.Level = cognition.Knowledge
		if err := store.AddProblem(p); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	draft := authoring.NewExamDraft("bench", "Bench exam")
	if err := draft.Add(ids...); err != nil {
		b.Fatal(err)
	}
	rec, err := draft.Finalize(store)
	if err != nil {
		b.Fatal(err)
	}
	problems, err := store.Problems(rec.ProblemIDs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkg, err := scorm.BuildPackage(rec, problems)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := pkg.WriteZip(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := scorm.ReadZip(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// E17 — adaptive versus fixed test over a cohort.
func BenchmarkAdaptiveVsFixed(b *testing.B) {
	pool := adaptive.UniformPool(200, 1.8, 3)
	rng := rand.New(rand.NewSource(11))
	abilities := make([]float64, 20)
	for i := range abilities {
		abilities[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adaptive.Compare(adaptive.Config{MaxItems: 15}, pool, abilities, 11); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension: whole-sample psychometrics (KR-20, point-biserial) over a
// simulated class.
func BenchmarkStatistics(b *testing.B) {
	res, _ := benchClass(b, 200, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Compute(res); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension: the assessment-feedback bundle (per-student + class advice).
func BenchmarkFeedback(b *testing.B) {
	res, a := benchClass(b, 200, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := feedback.Build(res, a); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the paper's upper/lower D against the point-biserial.
func BenchmarkDiscriminationAblation(b *testing.B) {
	res, a := benchClass(b, 200, 20)
	st, err := stats.Compute(res)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.CompareDiscrimination(a, st); err != nil {
			b.Fatal(err)
		}
	}
}

// The teacher report: the whole single-question analysis of a class the
// size of perfbench's teacher-report workload, 250 learners on 40
// four-option questions.
func BenchmarkAnalyzeTeacherReport(b *testing.B) {
	res, _ := benchClass(b, 250, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(res, analysis.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the group-fraction sweep (paper default 25% vs Kelly 27% vs
// 33%) over the same class.
func BenchmarkGroupFractionSweep(b *testing.B) {
	res, _ := benchClass(b, 200, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{0.25, 0.27, 0.33} {
			if _, err := analysis.SplitGroups(res, f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Ablation: full simulated administration at increasing class sizes.
func BenchmarkSimulatedAdministration(b *testing.B) {
	for _, size := range []int{44, 200, 1000} {
		b.Run(fmt.Sprintf("class%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchClass(b, size, 20)
			}
		})
	}
}

// benchDeliveryExam authors an unlimited-time 10-question exam into any
// storage backend for engine benchmarks.
func benchDeliveryExam(b *testing.B, store bank.Storage) string {
	b.Helper()
	var ids []string
	for i := 0; i < 10; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%02d", i+1), "bench",
			[]string{"a", "b", "c", "d"}, i%4)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.AddProblem(p); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	rec := &bank.ExamRecord{ID: "bench-delivery", Title: "Delivery bench",
		ProblemIDs: ids, Display: item.FixedOrder}
	if err := store.AddExam(rec); err != nil {
		b.Fatal(err)
	}
	return rec.ID
}

// BenchmarkEngineParallelSessions measures per-operation latency while
// b.RunParallel spreads independent learner sessions over the engine. The
// 1-shard configuration serializes every registry lookup on one shard lock
// (per-session locks still apply, so it is a conservative stand-in for —
// not a reproduction of — the old single exclusive engine mutex); the
// sharded configuration is the production engine. Run with -cpu 1,2,4,8 to
// watch the sharded engine scale with GOMAXPROCS.
func BenchmarkEngineParallelSessions(b *testing.B) {
	configs := []struct {
		name     string
		newStore func() bank.Storage
		shards   int
	}{
		{"1shard", func() bank.Storage { return bank.New() }, 1},
		{"sharded", func() bank.Storage { return bank.NewSharded(0) }, delivery.DefaultSessionShards},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			store := cfg.newStore()
			examID := benchDeliveryExam(b, store)
			eng := delivery.NewShardedEngine(store, nil, 0, cfg.shards)
			var students atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var sess *delivery.Session
				qi := 0
				for pb.Next() {
					if sess == nil || qi == len(sess.Order) {
						if sess != nil {
							if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
								b.Error(err)
								return
							}
						}
						n := students.Add(1)
						var err error
						sess, err = eng.Start(context.Background(), examID, fmt.Sprintf("s%06d", n), n)
						if err != nil {
							b.Error(err)
							return
						}
						qi = 0
					}
					if err := eng.Answer(context.Background(), sess.ID, sess.Order[qi], "A"); err != nil {
						b.Error(err)
						return
					}
					qi++
				}
			})
		})
	}
}
