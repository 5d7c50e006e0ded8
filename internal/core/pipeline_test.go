package core

import (
	"path/filepath"
	"strings"
	"testing"

	"mineassess/internal/analysis"
	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/internal/simulate"
)

// seedPipeline authors a 12-question exam over 3 concepts, in a store
// guarded against in-place edits of its values.
func seedPipeline(t *testing.T) (*Pipeline, string, []cognition.Concept) {
	t.Helper()
	p := NewWith(banktest.Guard(t, bank.New()))
	concepts := cognition.NumberedConcepts(3)
	var ids []string
	levels := cognition.Levels()
	for i := 0; i < 12; i++ {
		prob, err := item.NewMultipleChoice(
			"q"+string(rune('a'+i)), "Question text", []string{"1", "2", "3", "4"}, i%4)
		if err != nil {
			t.Fatal(err)
		}
		prob.ConceptID = concepts[i%3].ID
		prob.Level = levels[i%4] // Knowledge..Analysis
		prob.Subject = "Demo"
		if err := p.Store().AddProblem(prob); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, prob.ID)
	}
	rec := &bank.ExamRecord{ID: "final", Title: "Final exam",
		ProblemIDs: ids, Display: item.FixedOrder, TestTimeSeconds: 3600}
	if err := p.Store().AddExam(rec); err != nil {
		t.Fatal(err)
	}
	return p, rec.ID, concepts
}

func classCfg(n int) SimulationConfig {
	return SimulationConfig{
		Class: simulate.PopulationConfig{N: n, Mean: 0, SD: 1, Seed: 17},
		Seed:  99,
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	p, examID, concepts := seedPipeline(t)
	res, err := p.RunSimulated(examID, classCfg(44))
	if err != nil {
		t.Fatalf("RunSimulated: %v", err)
	}
	if len(res.Students) != 44 || len(res.Problems) != 12 {
		t.Fatalf("result shape %dx%d", len(res.Students), len(res.Problems))
	}
	a, err := p.Analyze(res, analysis.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Groups.Size() != 11 {
		t.Errorf("group size = %d, want 11", a.Groups.Size())
	}
	out, err := p.Report(res, a, concepts)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	for _, want := range []string{"D=PH-PL", "Signal board", "Knowledge", "Paint distribution"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestPipelineApplyMeasurements(t *testing.T) {
	p, examID, _ := seedPipeline(t)
	res, err := p.RunSimulated(examID, classCfg(60))
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze(res, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.ApplyMeasurements(a)
	if err != nil || n != 12 {
		t.Fatalf("ApplyMeasurements = %d, %v", n, err)
	}
	prob, err := p.Store().Problem("qa")
	if err != nil {
		t.Fatal(err)
	}
	if prob.Difficulty < 0 || prob.Discrimination == -1 {
		t.Errorf("measurements not applied: P=%v D=%v", prob.Difficulty, prob.Discrimination)
	}
	// A second simulated run now calibrates items to their measured P.
	res2, err := p.RunSimulated(examID, classCfg(44))
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineCoverage(t *testing.T) {
	p, examID, concepts := seedPipeline(t)
	table, err := p.Coverage(examID, concepts)
	if err != nil {
		t.Fatal(err)
	}
	if table.Total() != 12 {
		t.Errorf("coverage total = %d, want 12", table.Total())
	}
	rep := table.Analyze()
	if len(rep.LostConcepts) != 0 {
		t.Errorf("lost concepts = %v", rep.LostConcepts)
	}
}

func TestPipelineSCORMExport(t *testing.T) {
	p, examID, _ := seedPipeline(t)
	pkg, err := p.ExportSCORM(examID)
	if err != nil {
		t.Fatal(err)
	}
	if missing := pkg.MissingFiles(); len(missing) != 0 {
		t.Errorf("missing files: %v", missing)
	}
	if _, err := p.ExportSCORM("ghost"); err == nil {
		t.Error("unknown exam should fail")
	}
}

func TestPipelineQTIRoundTrip(t *testing.T) {
	p, examID, _ := seedPipeline(t)
	raw, err := p.ExportQTI(examID)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewWith(banktest.Guard(t, bank.New()))
	ids, err := p2.ImportQTI(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 12 {
		t.Fatalf("imported = %d, want 12", len(ids))
	}
	prob, err := p2.Store().Problem("qa")
	if err != nil {
		t.Fatal(err)
	}
	if prob.Style != item.MultipleChoice || len(prob.Options) != 4 {
		t.Errorf("imported problem = %+v", prob)
	}
	// Importing again collides.
	if _, err := p2.ImportQTI(raw); err == nil {
		t.Error("duplicate import should fail")
	}
}

func TestPipelineSaveOpen(t *testing.T) {
	p, examID, _ := seedPipeline(t)
	path := filepath.Join(t.TempDir(), "bank.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Store().ProblemCount() != 12 {
		t.Errorf("reloaded problems = %d", p2.Store().ProblemCount())
	}
	if _, err := p2.Store().Exam(examID); err != nil {
		t.Errorf("reloaded exam: %v", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestRunSimulatedErrors(t *testing.T) {
	p, examID, _ := seedPipeline(t)
	if _, err := p.RunSimulated("ghost", classCfg(10)); err == nil {
		t.Error("unknown exam should fail")
	}
	bad := classCfg(0)
	if _, err := p.RunSimulated(examID, bad); err == nil {
		t.Error("empty class should fail")
	}
}

func TestTemplatesAccessor(t *testing.T) {
	p := New()
	if err := p.Templates().Add(item.Template{ID: "t1"}); err != nil {
		t.Fatal(err)
	}
	if p.Templates().Len() != 1 {
		t.Error("template registry not shared")
	}
}
