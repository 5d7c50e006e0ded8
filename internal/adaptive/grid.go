package adaptive

import "math/rand"

// InfoGrid precomputes every pool item's Fisher information on a fixed theta
// grid, turning the per-step item-selection inner loop — pool-size × 3PL
// information evaluations (exp calls) per administered item — into a flat
// array scan with linear interpolation. Rows are pool indices in the order
// the grid was built from; selection APIs take and return those indices, so
// callers can filter candidates (administered items, exposure caps) without
// rebuilding anything.
//
// A grid is immutable once built: share one per calibrated pool and rebuild
// only when the pool's parameters change (recalibration).
type InfoGrid struct {
	min, max float64
	step     float64
	points   int
	items    int
	// vals is theta-major: vals[j*items+i] = info(item i, grid theta j).
	// Selection fixes one grid cell (two adjacent theta rows) and scans all
	// candidates, so this layout keeps the ArgMax/TopK inner loop on two
	// contiguous slices instead of striding `points` floats per item.
	vals []float64
}

// DefaultGridPoints spans [thetaMin, thetaMax] at a 0.025 step — fine enough
// that interpolated information orders items like the exact computation does
// for any realistically separated pool.
const DefaultGridPoints = 321

// NewInfoGrid tabulates the pool's information over [min, max] at the given
// resolution (points >= 2; DefaultGridPoints when in doubt).
func NewInfoGrid(pool []PoolItem, min, max float64, points int) *InfoGrid {
	if points < 2 {
		points = 2
	}
	if max <= min {
		max = min + 1
	}
	g := &InfoGrid{
		min:    min,
		max:    max,
		step:   (max - min) / float64(points-1),
		points: points,
		items:  len(pool),
		vals:   make([]float64, len(pool)*points),
	}
	for i, it := range pool {
		for j := 0; j < points; j++ {
			g.vals[j*g.items+i] = it.Params.Information(min + float64(j)*g.step)
		}
	}
	return g
}

// NewDefaultInfoGrid tabulates over the estimator's theta range at the
// default resolution — the grid every caller without special needs wants.
func NewDefaultInfoGrid(pool []PoolItem) *InfoGrid {
	return NewInfoGrid(pool, thetaMin, thetaMax, DefaultGridPoints)
}

// Items reports the number of pool rows.
func (g *InfoGrid) Items() int { return g.items }

// locate resolves theta to its grid cell: the index of the lower bound and
// the interpolation fraction within the cell. Thetas outside the grid clamp
// to its edges (matching the estimators, which clamp to the same range).
func (g *InfoGrid) locate(theta float64) (int, float64) {
	if theta <= g.min {
		return 0, 0
	}
	if theta >= g.max {
		return g.points - 2, 1
	}
	pos := (theta - g.min) / g.step
	j := int(pos)
	if j > g.points-2 {
		j = g.points - 2
	}
	return j, pos - float64(j)
}

// Info returns item's interpolated information at theta.
func (g *InfoGrid) Info(itemIdx int, theta float64) float64 {
	j, frac := g.locate(theta)
	lo := g.vals[j*g.items+itemIdx]
	hi := g.vals[(j+1)*g.items+itemIdx]
	return lo + frac*(hi-lo)
}

// ArgMax returns the candidate pool index with the greatest information at
// theta — the grid-backed MaxInformation. Ties break to the earliest
// candidate, like the exact selector. candidates must be non-empty.
func (g *InfoGrid) ArgMax(candidates []int, theta float64) int {
	j, frac := g.locate(theta)
	lo := g.vals[j*g.items : (j+1)*g.items]
	hi := g.vals[(j+1)*g.items : (j+2)*g.items]
	best, bestInfo := candidates[0], -1.0
	for _, idx := range candidates {
		if info := lo[idx] + frac*(hi[idx]-lo[idx]); info > bestInfo {
			bestInfo = info
			best = idx
		}
	}
	return best
}

// ArgMaxExcept is ArgMax over every pool row not in skip, without a
// candidate list: it scans the rows in order, stepping over the skipped
// ones, so it picks exactly what ArgMax picks from the unskipped rows, ties
// to the earliest. skip must be sorted ascending (duplicates are fine). It
// returns -1 when skip covers every row.
func (g *InfoGrid) ArgMaxExcept(skip []int, theta float64) int {
	j, frac := g.locate(theta)
	lo := g.vals[j*g.items : (j+1)*g.items]
	hi := g.vals[(j+1)*g.items : (j+2)*g.items]
	best, bestInfo := -1, -1.0
	for idx := range lo {
		if len(skip) > 0 && skip[0] == idx {
			for len(skip) > 0 && skip[0] == idx {
				skip = skip[1:]
			}
			continue
		}
		if best < 0 {
			best = idx // ArgMax starts from the first candidate
		}
		if info := lo[idx] + frac*(hi[idx]-lo[idx]); info > bestInfo {
			bestInfo = info
			best = idx
		}
	}
	return best
}

// TopK picks uniformly among the k most informative candidates at theta —
// the grid-backed Randomesque. It mirrors the exact selector's algorithm
// (fill k, then replace the weakest on strict improvement) so a given rng
// stream draws the same item whenever the information ordering agrees.
// k <= 1 degenerates to ArgMax.
func (g *InfoGrid) TopK(rng *rand.Rand, candidates []int, k int, theta float64) int {
	if k <= 1 || len(candidates) <= 1 {
		return g.ArgMax(candidates, theta)
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	j, frac := g.locate(theta)
	lo := g.vals[j*g.items : (j+1)*g.items]
	hi := g.vals[(j+1)*g.items : (j+2)*g.items]
	type ranked struct {
		idx  int
		info float64
	}
	top := make([]ranked, 0, k)
	for _, idx := range candidates {
		info := lo[idx] + frac*(hi[idx]-lo[idx])
		if len(top) < k {
			top = append(top, ranked{idx, info})
			continue
		}
		weakest := 0
		for w := 1; w < len(top); w++ {
			if top[w].info < top[weakest].info {
				weakest = w
			}
		}
		if info > top[weakest].info {
			top[weakest] = ranked{idx, info}
		}
	}
	return top[rng.Intn(len(top))].idx
}
