package bank

import (
	"os"
	"testing"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// seededStore builds a bank with a spread of subjects, styles, levels and
// measured indices.
func seededStore(t *testing.T) *Sharded {
	t.Helper()
	s := New()
	add := func(p *item.Problem) {
		t.Helper()
		if err := s.AddProblem(p); err != nil {
			t.Fatal(err)
		}
	}
	p1 := mustMC(t, "alg1")
	p1.Subject = "Algebra"
	p1.Level = cognition.Knowledge
	p1.ConceptID = "c-eq"
	p1.Keywords = []string{"linear", "equation"}
	p1.Difficulty = 0.8
	p1.Discrimination = 0.45
	add(p1)

	p2 := mustMC(t, "alg2")
	p2.Subject = "Algebra"
	p2.Level = cognition.Application
	p2.ConceptID = "c-eq"
	p2.Difficulty = 0.35
	p2.Discrimination = 0.2
	add(p2)

	p3 := &item.Problem{ID: "geo1", Style: item.TrueFalse,
		Question: "A square has four equal sides.", Answer: "true",
		Subject: "Geometry", Level: cognition.Comprehension,
		ConceptID: "c-shape", Difficulty: -1, Discrimination: -1}
	add(p3)

	p4 := &item.Problem{ID: "essay1", Style: item.Essay,
		Question: "Explain the Pythagorean theorem.", Subject: "Geometry",
		Level: cognition.Evaluation, ConceptID: "c-shape",
		Keywords: []string{"pythagoras"}, Difficulty: -1, Discrimination: -1}
	add(p4)
	return s
}

func TestSearchBySubject(t *testing.T) {
	s := seededStore(t)
	got := s.Search(Query{Subject: "algebra"}) // case-insensitive
	if len(got) != 2 {
		t.Fatalf("algebra results = %d, want 2", len(got))
	}
	for _, p := range got {
		if p.Subject != "Algebra" {
			t.Errorf("stray subject %q", p.Subject)
		}
	}
}

func TestSearchByStyleAndLevel(t *testing.T) {
	s := seededStore(t)
	got := s.Search(Query{Style: item.TrueFalse})
	if len(got) != 1 || got[0].ID != "geo1" {
		t.Errorf("style search = %v", ids(got))
	}
	got = s.Search(Query{Level: cognition.Application})
	if len(got) != 1 || got[0].ID != "alg2" {
		t.Errorf("level search = %v", ids(got))
	}
	got = s.Search(Query{Subject: "Algebra", Level: cognition.Knowledge})
	if len(got) != 1 || got[0].ID != "alg1" {
		t.Errorf("AND search = %v", ids(got))
	}
}

func TestSearchByKeyword(t *testing.T) {
	s := seededStore(t)
	if got := s.Search(Query{Keyword: "pythagoras"}); len(got) != 1 || got[0].ID != "essay1" {
		t.Errorf("keyword tag search = %v", ids(got))
	}
	if got := s.Search(Query{Keyword: "SQUARE"}); len(got) != 1 || got[0].ID != "geo1" {
		t.Errorf("keyword text search = %v", ids(got))
	}
	if got := s.Search(Query{Keyword: "geometry"}); len(got) != 2 {
		t.Errorf("keyword subject search = %v", ids(got))
	}
	if got := s.Search(Query{Keyword: "zzz"}); len(got) != 0 {
		t.Errorf("no-match search = %v", ids(got))
	}
}

func TestSearchByConcept(t *testing.T) {
	s := seededStore(t)
	if got := s.Search(Query{ConceptID: "c-shape"}); len(got) != 2 {
		t.Errorf("concept search = %v", ids(got))
	}
}

func TestSearchByDifficultyRange(t *testing.T) {
	s := seededStore(t)
	got := s.Search(Query{MinDifficulty: 0.5, MaxDifficulty: 0.9})
	if len(got) != 1 || got[0].ID != "alg1" {
		t.Errorf("difficulty range = %v", ids(got))
	}
	// Unmeasured problems (difficulty < 0) never match a bound.
	got = s.Search(Query{MinDifficulty: 0.01})
	for _, p := range got {
		if p.Difficulty < 0 {
			t.Errorf("unmeasured %s matched a difficulty bound", p.ID)
		}
	}
}

func TestSearchByDiscrimination(t *testing.T) {
	s := seededStore(t)
	got := s.Search(Query{MinDiscrimination: 0.3})
	if len(got) != 1 || got[0].ID != "alg1" {
		t.Errorf("discrimination search = %v", ids(got))
	}
}

func TestSearchLimitAndOrder(t *testing.T) {
	s := seededStore(t)
	got := s.Search(Query{})
	if len(got) != 4 {
		t.Fatalf("wildcard = %d, want 4", len(got))
	}
	// Deterministic ID order.
	if got[0].ID != "alg1" || got[3].ID != "geo1" {
		t.Errorf("order = %v", ids(got))
	}
	limited := s.Search(Query{Limit: 2})
	if len(limited) != 2 {
		t.Errorf("limited = %d, want 2", len(limited))
	}
}

func TestSubjects(t *testing.T) {
	s := seededStore(t)
	subs := s.Subjects()
	if len(subs) != 2 || subs[0] != "Algebra" || subs[1] != "Geometry" {
		t.Errorf("Subjects = %v", subs)
	}
}

func TestCountByStyle(t *testing.T) {
	s := seededStore(t)
	counts := s.CountByStyle()
	if counts[item.MultipleChoice] != 2 || counts[item.TrueFalse] != 1 || counts[item.Essay] != 1 {
		t.Errorf("CountByStyle = %v", counts)
	}
}

func ids(ps []*item.Problem) []string {
	out := make([]string, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.ID)
	}
	return out
}
