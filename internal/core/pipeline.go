// Package core is the public facade of the assessment system: one Pipeline
// wires the problem/exam bank, the simulator (or live delivery engine), the
// analysis model, the renderers and the SCORM/QTI exporters together, so a
// caller can author, administer, analyze and fix an exam — the complete
// learning-cycle loop the paper's introduction motivates.
package core

import (
	"fmt"
	"strings"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/internal/qti"
	"mineassess/internal/report"
	"mineassess/internal/scorm"
	"mineassess/internal/simulate"
)

// Version identifies the library release.
const Version = "1.0.0"

// Pipeline is the assessment system facade. Construct with New, NewWith or
// Open; the zero value is not usable.
type Pipeline struct {
	store     bank.Storage
	templates *item.TemplateRegistry
}

// New builds a pipeline around an empty single-shard bank (bank.New).
func New() *Pipeline {
	return NewWith(bank.New())
}

// NewWith builds a pipeline around any storage backend — an in-memory
// sharded store or a journaled one.
func NewWith(store bank.Storage) *Pipeline {
	return &Pipeline{
		store:     store,
		templates: item.NewTemplateRegistry(),
	}
}

// Open builds a pipeline around a bank loaded from disk.
func Open(path string) (*Pipeline, error) {
	store, err := bank.Load(path)
	if err != nil {
		return nil, err
	}
	return NewWith(store), nil
}

// Store exposes the underlying problem & exam database.
func (p *Pipeline) Store() bank.Storage {
	return p.store
}

// Templates exposes the presentation-template registry.
func (p *Pipeline) Templates() *item.TemplateRegistry {
	return p.templates
}

// Save persists the bank.
func (p *Pipeline) Save(path string) error {
	return p.store.Save(path)
}

// SimulationConfig drives a simulated administration of a stored exam.
type SimulationConfig struct {
	// Class is the simulated cohort; required.
	Class simulate.PopulationConfig
	// Seed drives the sitting (independent of the population seed).
	Seed int64
	// SkipRate is the probability an unsure student skips.
	SkipRate float64
}

// simulatedDiscrimination is the IRT discrimination a of every simulated
// problem. None guesses (c = 0), and one without a recorded Item Difficulty
// Index has difficulty b = 0.
const simulatedDiscrimination = 1.5

// RunSimulated administers a stored exam to a simulated class and returns
// the response matrix. Problems with a recorded Item Difficulty Index get
// IRT parameters calibrated to that index; unmeasured problems have
// difficulty 0.
func (p *Pipeline) RunSimulated(examID string, cfg SimulationConfig) (*analysis.ExamResult, error) {
	rec, err := p.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	problems, err := p.store.Problems(rec.ProblemIDs)
	if err != nil {
		return nil, err
	}
	specs := make([]simulate.ItemSpec, 0, len(problems))
	for _, prob := range problems {
		params := simulate.IRTParams{A: simulatedDiscrimination}
		if prob.Difficulty > 0 && prob.Difficulty < 1 {
			calibrated, err := simulate.ParamsForTargetP(prob.Difficulty, simulatedDiscrimination, 0)
			if err == nil {
				params = calibrated
			}
		}
		specs = append(specs, simulate.ItemSpec{Problem: prob, Params: params})
	}
	pop, err := simulate.NewPopulation(cfg.Class)
	if err != nil {
		return nil, err
	}
	return simulate.Run(simulate.ExamConfig{
		ExamID:   examID,
		Items:    specs,
		Seed:     cfg.Seed,
		TestTime: time.Duration(rec.TestTimeSeconds) * time.Second,
		SkipRate: cfg.SkipRate,
	}, pop)
}

// Analyze runs the paper's analysis model over a response matrix.
func (p *Pipeline) Analyze(res *analysis.ExamResult, opts analysis.Options) (*analysis.ExamAnalysis, error) {
	return analysis.Analyze(res, opts)
}

// ApplyMeasurements writes each question's measured Item Difficulty Index
// and Item Discrimination Index back onto the stored problems, closing the
// paper's fix-the-question loop. It returns the number of problems updated.
func (p *Pipeline) ApplyMeasurements(a *analysis.ExamAnalysis) (int, error) {
	updated := 0
	for _, q := range a.Questions {
		stored, err := p.store.Problem(q.ProblemID)
		if err != nil {
			return updated, err
		}
		prob := stored.Clone() // the stored problem is shared with every reader
		prob.Difficulty = q.P
		prob.Discrimination = q.D
		if err := p.store.UpdateProblem(prob); err != nil {
			return updated, err
		}
		updated++
	}
	return updated, nil
}

// Coverage builds the two-way specification table for a stored exam over
// the given concepts.
func (p *Pipeline) Coverage(examID string, concepts []cognition.Concept) (*cognition.TwoWayTable, error) {
	rec, err := p.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	return authoring.CoverageTable(p.store, rec.ProblemIDs, concepts)
}

// Report bundles the paper's full analysis output for an exam sitting: the
// number-representation table, the signal board, per-question distraction,
// the time figure and — when concepts are supplied — the two-way
// specification table with its coverage analyses.
func (p *Pipeline) Report(res *analysis.ExamResult, a *analysis.ExamAnalysis, concepts []cognition.Concept) (string, error) {
	var b strings.Builder
	b.WriteString(report.NumberTable(a))
	b.WriteByte('\n')
	b.WriteString(report.SignalBoard(a))
	b.WriteByte('\n')
	b.WriteString(report.TimeSufficiency(analysis.AnalyzeTime(res)))
	if pts := analysis.TimeCurve(res, 40); pts != nil {
		b.WriteString(report.TimeCurve(pts, 8))
	}
	grid := analysis.ScoreDifficulty(res, a, 8, 6)
	b.WriteString(report.ScoreDifficulty(grid))
	if sums := analysis.SummarizeQuestionnaires(res); len(sums) > 0 {
		b.WriteByte('\n')
		b.WriteString(report.Questionnaires(sums))
	}
	if len(concepts) > 0 {
		table, err := p.Coverage(res.ExamID, concepts)
		if err != nil {
			return "", fmt.Errorf("core: coverage: %w", err)
		}
		b.WriteByte('\n')
		b.WriteString(report.TwoWayTable(table))
		b.WriteString(report.Coverage(table.Analyze()))
	}
	return b.String(), nil
}

// ExportSCORM renders a stored exam into a SCORM content package.
func (p *Pipeline) ExportSCORM(examID string) (*scorm.Package, error) {
	rec, err := p.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	problems, err := p.store.Problems(rec.ProblemIDs)
	if err != nil {
		return nil, err
	}
	return scorm.BuildPackage(rec, problems)
}

// ExportQTI renders a stored exam's problems as an IMS QTI document.
func (p *Pipeline) ExportQTI(examID string) ([]byte, error) {
	rec, err := p.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	problems, err := p.store.Problems(rec.ProblemIDs)
	if err != nil {
		return nil, err
	}
	items := make([]qti.QTIItem, 0, len(problems))
	for _, prob := range problems {
		qi, err := qti.Export(prob)
		if err != nil {
			return nil, err
		}
		items = append(items, *qi)
	}
	return qti.EncodeDocument(items)
}

// ImportQTI loads problems from a QTI document into the bank, returning the
// imported IDs in document order.
func (p *Pipeline) ImportQTI(raw []byte) ([]string, error) {
	doc, err := qti.ParseDocument(raw)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(doc.Items))
	for i := range doc.Items {
		prob, err := qti.Import(&doc.Items[i])
		if err != nil {
			return nil, err
		}
		if err := p.store.AddProblem(prob); err != nil {
			return nil, err
		}
		ids = append(ids, prob.ID)
	}
	return ids, nil
}
