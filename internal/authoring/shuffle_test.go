package authoring

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

func shuffleFixture(t *testing.T) *item.Problem {
	t.Helper()
	p, err := item.NewMultipleChoice("q1", "?",
		[]string{"alpha", "beta", "gamma", "delta"}, 2) // correct C = gamma
	if err != nil {
		t.Fatal(err)
	}
	p.Level = cognition.Knowledge
	return p
}

// presentedKey returns the key under which the options present text.
func presentedKey(opts []item.Option, text string) string {
	for _, o := range opts {
		if o.Text == text {
			return o.Key
		}
	}
	return ""
}

func TestShuffleOptionsPreservesAnswer(t *testing.T) {
	p := shuffleFixture(t)
	rng := rand.New(rand.NewSource(0))
	for seed := int64(0); seed < 25; seed++ {
		perm := ShuffleOptions(p, seed, rng)
		// The presented key of the correct text "gamma" maps back to the
		// authored key C and earns full credit.
		key := presentedKey(PresentOptions(p, perm), "gamma")
		authored, presented := UnshuffleResponse(p, perm, key)
		if authored != "C" || !presented {
			t.Fatalf("seed %d: presented key %q maps to %q, want C", seed, key, authored)
		}
		if credit, _ := p.Grade(authored); credit != 1 {
			t.Fatalf("seed %d: grade = %v", seed, credit)
		}
	}
}

// TestShuffleOptionsDeterministicPerSeed: one rng re-seeded per problem, as
// a sitting uses it, gives every problem the permutation a fresh source
// with the same seed gives, for a range of sitting seeds and positions.
func TestShuffleOptionsDeterministicPerSeed(t *testing.T) {
	p := shuffleFixture(t)
	rng := rand.New(rand.NewSource(1))
	for sitting := int64(-50); sitting < 50; sitting++ {
		for i := 0; i < 40; i++ {
			seed := sitting + int64(i)*2654435761
			got := ShuffleOptions(p, seed, rng)
			want := rand.New(rand.NewSource(seed)).Perm(len(p.Options))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: reused rng gives %v, a fresh source %v", seed, got, want)
			}
		}
	}
}

func TestShuffleOptionsDoesNotMutateOriginal(t *testing.T) {
	p := shuffleFixture(t)
	orig := p.Clone()
	perm := ShuffleOptions(p, 3, rand.New(rand.NewSource(0)))
	PresentOptions(p, perm)
	_, _ = UnshuffleResponse(p, perm, "A")
	if !reflect.DeepEqual(p, orig) {
		t.Error("original problem mutated")
	}
}

func TestShuffleOptionsNoOptions(t *testing.T) {
	essay := &item.Problem{ID: "e1", Style: item.Essay, Question: "?",
		Level: cognition.Evaluation}
	perm := ShuffleOptions(essay, 1, rand.New(rand.NewSource(0)))
	if len(perm) != 0 || len(PresentOptions(essay, perm)) != 0 {
		t.Errorf("essay permutation = %v", perm)
	}
	if got, presented := UnshuffleResponse(essay, perm, "A"); got != "A" || presented {
		t.Errorf("essay response = %q, presented %v", got, presented)
	}
}

// TestUnshuffleResponsePassthrough: without a permutation every response
// passes through as presented; under one, a presented key maps to its
// authored key and any other response passes through as not presented.
func TestUnshuffleResponsePassthrough(t *testing.T) {
	p := shuffleFixture(t)
	for _, response := range []string{"whatever", "B"} {
		if got, presented := UnshuffleResponse(p, nil, response); got != response || !presented {
			t.Errorf("nil permutation: %q = %q, presented %v", response, got, presented)
		}
	}
	perm := []int{2, 0, 3, 1}
	for response, want := range map[string]string{
		"A": "C", "D": "B", "Z": "Z", "E": "E", "AB": "AB", "": "", "a": "a",
	} {
		got, presented := UnshuffleResponse(p, perm, response)
		if got != want || presented != (got != response) {
			t.Errorf("response %q = %q, presented %v; want %q", response, got, presented, want)
		}
	}
}

// Property: shuffling is a permutation — same option texts, same count,
// and the presented correct key always maps back to the authored key.
func TestShufflePermutationProperty(t *testing.T) {
	p := shuffleFixture(t)
	rng := rand.New(rand.NewSource(0))
	f := func(seed int64) bool {
		perm := ShuffleOptions(p, seed, rng)
		presented := PresentOptions(p, perm)
		if len(presented) != len(p.Options) {
			return false
		}
		texts := make(map[string]int)
		for _, o := range p.Options {
			texts[o.Text]++
		}
		for i, o := range presented {
			if o.Key != string(rune('A'+i)) {
				return false
			}
			texts[o.Text]--
		}
		for _, n := range texts {
			if n != 0 {
				return false
			}
		}
		key, ok := UnshuffleResponse(p, perm, presentedKey(presented, "gamma"))
		return ok && key == "C"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
