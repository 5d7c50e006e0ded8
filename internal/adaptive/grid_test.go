package adaptive

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mineassess/internal/simulate"
)

// gridPool builds a diverse 3PL pool for grid-accuracy checks.
func gridPool(n int, seed int64) []PoolItem {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]PoolItem, n)
	for i := range pool {
		pool[i] = PoolItem{
			ID: fmt.Sprintf("it-%03d", i),
			Params: simulate.IRTParams{
				A: 0.5 + 1.5*rng.Float64(),
				B: -3.5 + 7*rng.Float64(),
				C: 0.25 * rng.Float64(),
			},
		}
	}
	return pool
}

// TestInfoGridInterpolationAccuracy: interpolated information must track the
// exact 3PL computation closely across the whole theta range, including
// off-grid thetas and clamped ones outside it.
func TestInfoGridInterpolationAccuracy(t *testing.T) {
	pool := gridPool(50, 11)
	g := NewDefaultInfoGrid(pool)
	if g.Items() != len(pool) {
		t.Fatalf("Items() = %d, want %d", g.Items(), len(pool))
	}
	for theta := -4.3; theta <= 4.3; theta += 0.0137 {
		clamped := math.Max(thetaMin, math.Min(thetaMax, theta))
		for i, it := range pool {
			exact := it.Params.Information(clamped)
			got := g.Info(i, theta)
			if diff := math.Abs(got - exact); diff > 1e-3 && diff > 0.01*exact {
				t.Fatalf("item %d theta %.4f: grid %.6f vs exact %.6f", i, theta, got, exact)
			}
		}
	}
}

// TestInfoGridArgMaxMatchesExactSelection pins the grid-backed selection to
// the exact computation: across a dense theta sweep and random candidate
// subsets, the chosen item's true information must be within tolerance of
// the true maximum (near-exact ties may legitimately swap winners; a
// materially worse pick is a bug).
func TestInfoGridArgMaxMatchesExactSelection(t *testing.T) {
	pool := gridPool(120, 23)
	g := NewDefaultInfoGrid(pool)
	rng := rand.New(rand.NewSource(5))
	all := make([]int, len(pool))
	for i := range all {
		all[i] = i
	}
	subsets := [][]int{all}
	for i := 0; i < 8; i++ {
		sub := append([]int(nil), all...)
		rng.Shuffle(len(sub), func(a, b int) { sub[a], sub[b] = sub[b], sub[a] })
		sub = sub[:10+rng.Intn(60)]
		sort.Ints(sub)
		subsets = append(subsets, sub)
	}
	for theta := -4.0; theta <= 4.0; theta += 0.0317 {
		for _, candidates := range subsets {
			chosen := g.ArgMax(candidates, theta)
			exactBest := -1.0
			for _, idx := range candidates {
				if info := pool[idx].Params.Information(theta); info > exactBest {
					exactBest = info
				}
			}
			chosenExact := pool[chosen].Params.Information(theta)
			if exactBest-chosenExact > 1e-3 {
				t.Fatalf("theta %.4f: grid chose item %d (exact info %.6f), true best %.6f",
					theta, chosen, chosenExact, exactBest)
			}
		}
	}
}

// TestInfoGridTopKStaysWithinExactTopK: the randomesque grid rule must only
// draw items whose exact information reaches the exact k-th best (within
// tolerance) — grid approximation may reorder near-ties but never promote a
// materially weaker item into the pick set.
func TestInfoGridTopKStaysWithinExactTopK(t *testing.T) {
	pool := gridPool(80, 31)
	g := NewDefaultInfoGrid(pool)
	all := make([]int, len(pool))
	for i := range all {
		all[i] = i
	}
	const k = 5
	for theta := -3.5; theta <= 3.5; theta += 0.5 {
		infos := make([]float64, len(pool))
		for i, it := range pool {
			infos[i] = it.Params.Information(theta)
		}
		ranked := append([]float64(nil), infos...)
		sort.Sort(sort.Reverse(sort.Float64Slice(ranked)))
		kth := ranked[k-1]
		for draw := 0; draw < 20; draw++ {
			rng := rand.New(rand.NewSource(int64(draw)))
			chosen := g.TopK(rng, all, k, theta)
			if kth-infos[chosen] > 1e-3 {
				t.Fatalf("theta %.2f draw %d: picked item %d info %.6f below k-th best %.6f",
					theta, draw, chosen, infos[chosen], kth)
			}
		}
	}
	// k <= 1 degenerates to ArgMax.
	if got, want := g.TopK(rand.New(rand.NewSource(1)), all, 1, 0.3), g.ArgMax(all, 0.3); got != want {
		t.Fatalf("TopK(k=1) = %d, want ArgMax %d", got, want)
	}
}

// TestInfoGridArgMaxExceptMatchesArgMax: skipping rows in place picks what
// ArgMax picks from the rows left, ties to the earliest, and reports -1
// once every row is skipped. The pool repeats its parameters, so ties
// occur.
func TestInfoGridArgMaxExceptMatchesArgMax(t *testing.T) {
	pool := gridPool(40, 41)
	for i := 20; i < len(pool); i++ {
		pool[i].Params = pool[i%7].Params
	}
	g := NewDefaultInfoGrid(pool)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 400; trial++ {
		theta := -4.5 + 9*rng.Float64()
		var skip, rest []int
		for i := range pool {
			if rng.Intn(4) < trial%4 {
				skip = append(skip, i)
			} else {
				rest = append(rest, i)
			}
		}
		got := g.ArgMaxExcept(skip, theta)
		want := -1
		if len(rest) > 0 {
			want = g.ArgMax(rest, theta)
		}
		if got != want {
			t.Fatalf("theta %.4f, %d rows skipped: ArgMaxExcept = %d, ArgMax over the rest = %d",
				theta, len(skip), got, want)
		}
	}
	all := make([]int, len(pool))
	for i := range all {
		all[i] = i
	}
	if got := g.ArgMaxExcept(all, 0); got != -1 {
		t.Errorf("ArgMaxExcept with every row skipped = %d, want -1", got)
	}
}
