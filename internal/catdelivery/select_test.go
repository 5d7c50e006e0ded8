package catdelivery

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mineassess/internal/adaptive"
	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
	"mineassess/internal/simulate"
)

// oracleRow is the selection algorithm selectNext replaced, kept as the
// oracle it must match: administered IDs in a map, a list of every unused
// row, the exposure cap over that list, and a fresh RNG per step for every
// rule. It reads the ledger without counting a hand-out, and returns the
// chosen pool row, or -1 when the pool is exhausted.
func oracleRow(pool *examPool, l *examLedger, rec *bank.AdaptiveSessionRecord) int {
	used := make(map[string]bool, len(rec.Administered)+1)
	for _, id := range rec.Administered {
		used[id] = true
	}
	rows := make([]int, 0, len(pool.items))
	for i, it := range pool.items {
		if !used[it.ID] {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		return -1
	}
	candidates := rows
	if rec.MaxExposure > 0 {
		candidates = l.underCap(pool.items, rows, rec.MaxExposure)
	}
	step := int64(len(rec.Administered) + 1)
	rng := rand.New(rand.NewSource(rec.Seed + step*0x9E3779B9))
	switch rec.Selector {
	case SelectorRandom:
		return candidates[rng.Intn(len(candidates))]
	case SelectorRandomesque:
		k := rec.RandomesqueK
		if k <= 0 {
			k = DefaultRandomesqueK
		}
		return pool.grid.TopK(rng, candidates, k, rec.Theta)
	default:
		return pool.grid.ArgMax(candidates, rec.Theta)
	}
}

// TestSelectMatchesOracle: every selector, with and without an exposure
// cap, hands out at each step the pool row the oracle picks for the same
// record and ledger state. Sittings of random lengths answer at random on
// one exam's shared ledger, over a pool whose parameters repeat (so
// information ties) and which lists one problem twice, so ties, the cap's
// least-exposed fallback and pool exhaustion all occur.
func TestSelectMatchesOracle(t *testing.T) {
	store := banktest.Guard(t, bank.NewSharded(4))
	const distinct = 24
	params := make(map[string]simulate.IRTParams, distinct)
	var ids []string
	for i := 0; i < distinct; i++ {
		id := fmt.Sprintf("sel-q%03d", i+1)
		p, err := newMC(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		params[id] = simulate.IRTParams{A: 1 + 0.5*float64(i%3), B: float64(i%4) - 1.5}
		ids = append(ids, id)
	}
	ids = append(ids, ids[4])
	if err := store.AddExam(&bank.ExamRecord{ID: "sel", Title: "Selection", ProblemIDs: ids, ItemParams: params}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := e.poolFor("sel")
	if err != nil {
		t.Fatal(err)
	}
	ledger := e.ledgerFor("sel")
	configs := []Config{
		{},
		{Selector: SelectorMaxInformation, MaxExposure: 0.3},
		{Selector: SelectorRandom},
		{Selector: SelectorRandom, MaxExposure: 0.3},
		{Selector: SelectorRandomesque},
		{Selector: SelectorRandomesque, RandomesqueK: 3, MaxExposure: 0.3},
	}
	rng := rand.New(rand.NewSource(11))
	var steps, fallbacks, exhausted int
	for sitting := 0; sitting < 300; sitting++ {
		cfg := configs[sitting%len(configs)]
		rec := &bank.AdaptiveSessionRecord{
			Seed: rng.Int63(), Selector: cfg.Selector,
			RandomesqueK: cfg.RandomesqueK, MaxExposure: cfg.MaxExposure,
		}
		s := &Session{ledger: ledger, pool: pool}
		ledger.start()
		length := 1 + rng.Intn(distinct+2)
		var responses []adaptive.ResponseRecord
		for len(rec.Administered) < length {
			if rec.MaxExposure > 0 && allCapped(pool, ledger, rec) {
				fallbacks++
			}
			want := oracleRow(pool, ledger, rec)
			got := s.selectNext(rec)
			if want < 0 {
				if got != nil {
					t.Fatalf("sitting %d (%+v) step %d: oracle finds the pool exhausted, selectNext handed out %s",
						sitting, cfg, len(rec.Administered)+1, got.ID)
				}
				exhausted++
				break
			}
			if got != pool.problems[want] {
				gotID := "nothing"
				if got != nil {
					gotID = got.ID
				}
				t.Fatalf("sitting %d (%+v) step %d at theta %.3f: selectNext handed out %s, oracle row %d (%s)",
					sitting, cfg, len(rec.Administered)+1, rec.Theta, gotID, want, pool.items[want].ID)
			}
			steps++
			correct := rng.Intn(2) == 0
			rec.Administered = append(rec.Administered, got.ID)
			rec.Correct = append(rec.Correct, correct)
			responses = append(responses, adaptive.ResponseRecord{Params: pool.items[want].Params, Correct: correct})
			if rec.Theta, rec.SE, err = adaptive.EstimateEAP(responses); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d steps matched, %d under a saturated cap, %d sittings exhausted the pool", steps, fallbacks, exhausted)
	if fallbacks == 0 || exhausted == 0 {
		t.Errorf("the run never reached the cap's fallback (%d) or pool exhaustion (%d)", fallbacks, exhausted)
	}
}

// allCapped reports whether some pool item is unused and every unused one
// has reached rec's exposure cap, so that the cap falls back to the
// least-exposed item.
func allCapped(pool *examPool, l *examLedger, rec *bank.AdaptiveSessionRecord) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	unused := false
	for _, it := range pool.items {
		if slices.Contains(rec.Administered, it.ID) {
			continue
		}
		if float64(l.handedOut[it.ID])/float64(l.starts) < rec.MaxExposure {
			return false
		}
		unused = true
	}
	return unused
}
