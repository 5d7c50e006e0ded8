package authoring

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

// bankWith builds a store holding `perCell` problems for every concept in
// conceptIDs at every given level.
func bankWith(t *testing.T, conceptIDs []string, levels []cognition.Level, perCell int) *bank.Sharded {
	t.Helper()
	s := bank.New()
	n := 0
	for _, c := range conceptIDs {
		for _, l := range levels {
			for i := 0; i < perCell; i++ {
				n++
				p, err := item.NewMultipleChoice(
					fmt.Sprintf("q-%s-%c-%02d", c, l.Letter(), i),
					"question", []string{"a", "b", "c", "d"}, 0)
				if err != nil {
					t.Fatal(err)
				}
				p.ConceptID = c
				p.Level = l
				if err := s.AddProblem(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

func TestBlueprintRequireAndTotal(t *testing.T) {
	bp := NewBlueprint()
	if err := bp.Require("c1", cognition.Knowledge, 2); err != nil {
		t.Fatal(err)
	}
	if err := bp.Require("c1", cognition.Analysis, 1); err != nil {
		t.Fatal(err)
	}
	if err := bp.Require("c2", cognition.Knowledge, 3); err != nil {
		t.Fatal(err)
	}
	if got := bp.Total(); got != 6 {
		t.Errorf("Total = %d, want 6", got)
	}
	if got := bp.ConceptIDs(); !reflect.DeepEqual(got, []string{"c1", "c2"}) {
		t.Errorf("ConceptIDs = %v", got)
	}
	if err := bp.Require("c1", cognition.Level(0), 1); err == nil {
		t.Error("invalid level should fail")
	}
	if err := bp.Require("c1", cognition.Knowledge, -1); err == nil {
		t.Error("negative requirement should fail")
	}
}

func TestAssembleSatisfiesBlueprint(t *testing.T) {
	s := bankWith(t, []string{"c1", "c2"},
		[]cognition.Level{cognition.Knowledge, cognition.Application}, 3)
	bp := NewBlueprint()
	_ = bp.Require("c1", cognition.Knowledge, 2)
	_ = bp.Require("c2", cognition.Application, 1)
	ids, err := Assemble(s, bp)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(ids) != 3 {
		t.Fatalf("picked %d, want 3: %v", len(ids), ids)
	}
	// Verify the picks actually satisfy the blueprint.
	tab, err := CoverageTable(s, ids, []cognition.Concept{{ID: "c1"}, {ID: "c2"}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Count("c1", cognition.Knowledge) != 2 {
		t.Errorf("c1/Knowledge = %d, want 2", tab.Count("c1", cognition.Knowledge))
	}
	if tab.Count("c2", cognition.Application) != 1 {
		t.Errorf("c2/Application = %d, want 1", tab.Count("c2", cognition.Application))
	}
}

func TestAssembleDeterministic(t *testing.T) {
	s := bankWith(t, []string{"c1"}, []cognition.Level{cognition.Knowledge}, 5)
	bp := NewBlueprint()
	_ = bp.Require("c1", cognition.Knowledge, 3)
	a, err := Assemble(s, bp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assemble(s, bp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("assembly must be deterministic")
	}
	if !sort.StringsAreSorted(a) {
		t.Errorf("picks should be in ID order: %v", a)
	}
}

func TestAssembleShortfall(t *testing.T) {
	s := bankWith(t, []string{"c1"}, []cognition.Level{cognition.Knowledge}, 1)
	bp := NewBlueprint()
	_ = bp.Require("c1", cognition.Knowledge, 2)
	_ = bp.Require("c1", cognition.Synthesis, 1)
	_, err := Assemble(s, bp)
	if !errors.Is(err, ErrShortfall) {
		t.Fatalf("err = %v, want ErrShortfall", err)
	}
	var se *ShortfallError
	if !errors.As(err, &se) {
		t.Fatal("error should be a *ShortfallError")
	}
	if len(se.Shortfalls) != 2 {
		t.Errorf("shortfalls = %d, want 2: %v", len(se.Shortfalls), se.Shortfalls)
	}
	for _, sf := range se.Shortfalls {
		if sf.String() == "" {
			t.Error("shortfall should describe itself")
		}
	}
}

func TestExamDraftLifecycle(t *testing.T) {
	s := bankWith(t, []string{"c1"}, []cognition.Level{cognition.Knowledge}, 4)
	ids := s.ProblemIDs()
	d := NewExamDraft("e1", "Unit test exam")
	d.TestTime = 30 * time.Minute
	if err := d.Add(ids...); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(ids[0]); !errors.Is(err, ErrDuplicateProblem) {
		t.Errorf("duplicate add = %v, want ErrDuplicateProblem", err)
	}
	if err := d.AddGroup("Part A", ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.AddGroup("", ids[0]); err == nil {
		t.Error("blank group name should fail")
	}
	if err := d.AddGroup("Bad", "ghost"); !errors.Is(err, ErrUnknownGroupItem) {
		t.Errorf("unknown group item = %v, want ErrUnknownGroupItem", err)
	}
	rec, err := d.Finalize(s)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if rec.TestTimeSeconds != 1800 {
		t.Errorf("TestTimeSeconds = %d, want 1800", rec.TestTimeSeconds)
	}
	if len(rec.Groups) != 1 || rec.Groups[0].Name != "Part A" {
		t.Errorf("groups = %+v", rec.Groups)
	}
	if err := s.AddExam(rec); err != nil {
		t.Fatalf("AddExam: %v", err)
	}
}

func TestExamDraftFinalizeErrors(t *testing.T) {
	s := bank.New()
	empty := NewExamDraft("e1", "t")
	if _, err := empty.Finalize(s); !errors.Is(err, ErrEmptyExam) {
		t.Errorf("empty draft = %v, want ErrEmptyExam", err)
	}
	d := NewExamDraft(" ", "t")
	_ = d.Add("x")
	if _, err := d.Finalize(s); err == nil {
		t.Error("blank ID should fail")
	}
	d2 := NewExamDraft("e2", "t")
	_ = d2.Add("ghost")
	if _, err := d2.Finalize(s); err == nil {
		t.Error("dangling problem should fail")
	}
}

func TestPresentationOrderFixed(t *testing.T) {
	rec := &bank.ExamRecord{ID: "e", ProblemIDs: []string{"a", "b", "c"},
		Display: item.FixedOrder}
	got, err := PresentationOrder(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("fixed order = %v", got)
	}
	got[0] = "mutated"
	if rec.ProblemIDs[0] == "mutated" {
		t.Error("order must be a copy")
	}
}

func TestPresentationOrderRandomDeterministicPerSeed(t *testing.T) {
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%02d", i)
	}
	rec := &bank.ExamRecord{ID: "e", ProblemIDs: ids, Display: item.RandomOrder}
	a, err := PresentationOrder(rec, seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PresentationOrder(rec, seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must give the same order")
	}
	c, err := PresentationOrder(rec, seeded(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should differ for 12 items")
	}
	// It is a permutation.
	sortedA := append([]string(nil), a...)
	sort.Strings(sortedA)
	if !reflect.DeepEqual(sortedA, ids) {
		t.Errorf("not a permutation: %v", a)
	}
}

func TestPresentationOrderKeepsGroupsContiguous(t *testing.T) {
	rec := &bank.ExamRecord{
		ID:         "e",
		ProblemIDs: []string{"a", "b", "c", "d", "e"},
		Display:    item.RandomOrder,
		Groups:     []bank.ExamGroup{{Name: "pair", ProblemIDs: []string{"b", "c"}}},
	}
	for seed := int64(0); seed < 20; seed++ {
		order, err := PresentationOrder(rec, seeded(seed))
		if err != nil {
			t.Fatal(err)
		}
		bi := indexOf(order, "b")
		ci := indexOf(order, "c")
		if ci != bi+1 {
			t.Fatalf("seed %d: group split apart: %v", seed, order)
		}
	}
}

func TestPresentationOrderInvalidDisplay(t *testing.T) {
	rec := &bank.ExamRecord{ID: "e", ProblemIDs: []string{"a"}}
	if _, err := PresentationOrder(rec, seeded(0)); err == nil {
		t.Error("zero display order should fail")
	}
}

func TestCloneProblemAs(t *testing.T) {
	s := bankWith(t, []string{"c1"}, []cognition.Level{cognition.Knowledge}, 1)
	src := s.ProblemIDs()[0]
	cp, err := CloneProblemAs(s, src, "copy1")
	if err != nil {
		t.Fatal(err)
	}
	if cp.ID != "copy1" {
		t.Errorf("clone ID = %s", cp.ID)
	}
	if _, err := s.Problem("copy1"); err != nil {
		t.Errorf("clone not stored: %v", err)
	}
	if _, err := CloneProblemAs(s, "ghost", "copy2"); err == nil {
		t.Error("missing source should fail")
	}
	if _, err := CloneProblemAs(s, src, "copy1"); err == nil {
		t.Error("duplicate target should fail")
	}
}

func TestParallelFormsBalanced(t *testing.T) {
	s := bankWith(t, []string{"c1", "c2"},
		[]cognition.Level{cognition.Knowledge, cognition.Application}, 4)
	ids := s.ProblemIDs() // 16 problems, 4 per cell
	formA, formB, err := ParallelForms(s, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(formA) != 8 || len(formB) != 8 {
		t.Fatalf("forms = %d/%d, want 8/8", len(formA), len(formB))
	}
	// Per-cell balance: each form holds 2 of each cell's 4 problems.
	concepts := []cognition.Concept{{ID: "c1"}, {ID: "c2"}}
	tabA, err := CoverageTable(s, formA, concepts)
	if err != nil {
		t.Fatal(err)
	}
	tabB, err := CoverageTable(s, formB, concepts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range concepts {
		for _, l := range []cognition.Level{cognition.Knowledge, cognition.Application} {
			if tabA.Count(c.ID, l) != 2 || tabB.Count(c.ID, l) != 2 {
				t.Errorf("cell %s/%s split %d/%d, want 2/2",
					c.ID, l, tabA.Count(c.ID, l), tabB.Count(c.ID, l))
			}
		}
	}
	// Disjoint and complete.
	seen := make(map[string]bool)
	for _, id := range append(append([]string(nil), formA...), formB...) {
		if seen[id] {
			t.Fatalf("problem %s in both forms", id)
		}
		seen[id] = true
	}
	if len(seen) != len(ids) {
		t.Errorf("forms cover %d of %d problems", len(seen), len(ids))
	}
}

func TestParallelFormsOddCell(t *testing.T) {
	s := bankWith(t, []string{"c1"}, []cognition.Level{cognition.Knowledge}, 3)
	formA, formB, err := ParallelForms(s, s.ProblemIDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(formA) != 2 || len(formB) != 1 {
		t.Errorf("odd split = %d/%d, want 2/1", len(formA), len(formB))
	}
}

func TestParallelFormsMissingProblem(t *testing.T) {
	s := bank.New()
	if _, _, err := ParallelForms(s, []string{"ghost"}); err == nil {
		t.Error("missing problem should fail")
	}
}

func TestCoverageTableSkipsUnclassified(t *testing.T) {
	s := bank.New()
	p, err := item.NewMultipleChoice("q1", "?", []string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// No concept assigned.
	if err := s.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	tab, err := CoverageTable(s, []string{"q1"}, cognition.NumberedConcepts(1))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Total() != 0 {
		t.Errorf("unclassified problem counted: total = %d", tab.Total())
	}
}

// seeded returns a source seeded as a sitting seeds it.
func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// blockShuffleOracle is shuffledOrder as it was before it shuffled block
// indices: it built a group map, an emitted-group map, one []string block
// per ungrouped problem and its own source. Kept to pin every seed's order.
func blockShuffleOracle(rec *bank.ExamRecord, seed int64) []string {
	grouped := make(map[string]int) // problem ID -> group index
	for gi, g := range rec.Groups {
		for _, id := range g.ProblemIDs {
			grouped[id] = gi
		}
	}
	var blocks [][]string
	emitted := make(map[int]bool)
	for _, id := range rec.ProblemIDs {
		if gi, ok := grouped[id]; ok {
			if !emitted[gi] {
				emitted[gi] = true
				blocks = append(blocks, append([]string(nil), rec.Groups[gi].ProblemIDs...))
			}
			continue
		}
		blocks = append(blocks, []string{id})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(blocks), func(i, j int) {
		blocks[i], blocks[j] = blocks[j], blocks[i]
	})
	out := make([]string, 0, len(rec.ProblemIDs))
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// TestShuffledOrderMatchesOracle: over 1,000 seeds, a RandomOrder exam's
// order is the one the block-list shuffle gave, with and without groups
// (including a problem listed in two groups and a group whose members are
// not adjacent in authored order).
func TestShuffledOrderMatchesOracle(t *testing.T) {
	ids := make([]string, 40)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%02d", i)
	}
	recs := map[string]*bank.ExamRecord{
		"ungrouped": {ID: "e", ProblemIDs: ids, Display: item.RandomOrder},
		"grouped": {ID: "e", ProblemIDs: ids, Display: item.RandomOrder, Groups: []bank.ExamGroup{
			{Name: "pair", ProblemIDs: []string{"p03", "p04"}},
			{Name: "spread", ProblemIDs: []string{"p30", "p10", "p20"}},
			{Name: "overlap", ProblemIDs: []string{"p04", "p39"}},
		}},
		"one":   {ID: "e", ProblemIDs: ids[:1], Display: item.RandomOrder},
		"empty": {ID: "e", Display: item.RandomOrder},
	}
	for name, rec := range recs {
		for seed := int64(0); seed < 1000; seed++ {
			got, err := PresentationOrder(rec, seeded(seed))
			if err != nil {
				t.Fatal(err)
			}
			if want := blockShuffleOracle(rec, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, seed %d: order %v, want %v", name, seed, got, want)
			}
		}
	}
}
