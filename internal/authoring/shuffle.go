package authoring

import (
	"math/rand"
	"unicode/utf8"

	"mineassess/internal/item"
)

// Option shuffling: when an exam randomizes presentation, the options of a
// multiple-choice problem can be permuted per sitting so neighbouring
// learners see different orders. A sitting keeps the permutation and
// shares the problem: it presents the authored option perm[i] i-th, keyed
// A, B, C, ... in presentation order, and the correct answer follows its
// option.

// ShuffleOptions returns the permutation the seed gives the problem's
// options. It re-seeds rng with seed first, so one rng serves every
// problem of a sitting and a seed always gives the same permutation.
func ShuffleOptions(p *item.Problem, seed int64, rng *rand.Rand) []int {
	rng.Seed(seed)
	return rng.Perm(len(p.Options))
}

// PresentOptions returns the problem's options as a sitting with the
// permutation presents them.
func PresentOptions(p *item.Problem, perm []int) []item.Option {
	out := make([]item.Option, len(perm))
	for i, orig := range perm {
		out[i] = item.Option{Key: string(rune('A' + i)), Text: p.Options[orig].Text}
	}
	return out
}

// UnshuffleResponse maps a response given against the presented options
// back to the authored option key. Under a nil permutation every response
// passes through as presented. Under a permutation, a response that is
// none of the presented keys passes through unchanged (free-text responses
// are not keys) with presented false: it must earn no credit, even when it
// happens to equal an authored key the sitting never showed.
func UnshuffleResponse(p *item.Problem, perm []int, response string) (key string, presented bool) {
	r, size := utf8.DecodeRuneInString(response)
	if i := int(r - 'A'); size == len(response) && i >= 0 && i < len(perm) {
		return p.Options[perm[i]].Key, true
	}
	return response, perm == nil
}
