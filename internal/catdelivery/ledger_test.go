package catdelivery

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mineassess/internal/adaptive"
	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
)

// TestLedgerOnlyForRegisteredSittings: a start that registers no sitting
// (unknown exam, uncalibrated exam, a floor above the pool size) leaves no
// ledger behind, so bad requests cannot grow the engine's ledger map. The
// first registered sitting makes its exam's ledger.
func TestLedgerOnlyForRegisteredSittings(t *testing.T) {
	ctx := context.Background()
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 5, 1.5, 1)
	p, err := newMC("plain-q1")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	if err := store.AddExam(&bank.ExamRecord{ID: "plain", ProblemIDs: []string{"plain-q1"}}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Start(ctx, "ghost", "x", Config{}, 1); !errors.Is(err, bank.ErrExamNotFound) {
		t.Errorf("unknown exam = %v", err)
	}
	if _, _, err := e.Start(ctx, "plain", "x", Config{}, 1); !errors.Is(err, ErrNotCalibrated) {
		t.Errorf("uncalibrated exam = %v", err)
	}
	if _, _, err := e.Start(ctx, "pool", "x", Config{MinItems: 6}, 1); !errors.Is(err, adaptive.ErrInvalidConfig) {
		t.Errorf("MinItems above the pool size = %v", err)
	}
	for _, id := range []string{"ghost", "plain", "pool"} {
		if e.ledgerOf(id) != nil {
			t.Errorf("a rejected start made a ledger for %s", id)
		}
	}
	if _, err := e.Recalibrate("pool", 1); !errors.Is(err, ErrNoResponses) {
		t.Errorf("recalibrate before any sitting = %v, want ErrNoResponses", err)
	}

	if _, _, err := e.Start(ctx, "pool", "y", Config{MaxItems: 2}, 1); err != nil {
		t.Fatal(err)
	}
	l := e.ledgerOf("pool")
	if l == nil {
		t.Fatal("a registered sitting made no ledger")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.starts != 1 || len(l.handedOut) != 1 || len(l.finished) != 0 {
		t.Errorf("ledger after one start = %d starts, hand-outs %v, %d finished; want 1, one item, 0",
			l.starts, l.handedOut, len(l.finished))
	}
}

// sitting is what one test sitting was shown, in order.
type sitting struct {
	exam, id string
	shown    []string
}

// TestLedgersUnderConcurrentSittings: goroutines start, answer and finish
// sittings on two exams, one under an exposure cap, while one goroutine
// recalibrates both exams and another purges finished sittings.
// Afterwards each exam's ledger holds exactly its sittings' finished
// records, by session ID, and its counts equal the starts and hand-outs
// those sittings made. CI runs it repeatedly under -race.
func TestLedgersUnderConcurrentSittings(t *testing.T) {
	ctx := context.Background()
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "capped", 20, 1.5, 2)
	calibratedExam(t, store, "open", 20, 1.5, 2)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker, maxItems = 6, 8, 5
	results := make([][]sitting, workers)
	var sittings, admin sync.WaitGroup
	for w := 0; w < workers; w++ {
		sittings.Add(1)
		go func(w int) {
			defer sittings.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				st := sitting{exam: "open"}
				cfg := Config{MaxItems: maxItems}
				if (w+i)%2 == 0 {
					st.exam, cfg.MaxExposure = "capped", 0.3
				}
				s, view, err := e.Start(ctx, st.exam, fmt.Sprintf("w%d-%d", w, i), cfg, int64(w*100+i))
				if err != nil {
					t.Error(err)
					return
				}
				st.id = s.ID
				// Some sittings end early through Finish with an item
				// pending; the rest answer until the engine stops them.
				quit := rng.Intn(maxItems + 2)
				for view != nil {
					st.shown = append(st.shown, view.ProblemID)
					if len(st.shown) > quit {
						_, err = e.Finish(ctx, s.ID)
						break
					}
					response := "B"
					if rng.Intn(2) == 0 {
						response = "A"
					}
					var prog *Progress
					if prog, err = e.SubmitResponse(ctx, s.ID, view.ProblemID, response); err != nil {
						break
					}
					view = prog.Next
				}
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = append(results[w], st)
			}
		}(w)
	}
	stop := make(chan struct{})
	loop := func(pass func() error) {
		admin.Add(1)
		go func() {
			defer admin.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := pass(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	loop(func() error {
		for _, exam := range []string{"capped", "open"} {
			if _, err := e.Recalibrate(exam, 3); err != nil && !errors.Is(err, ErrNoResponses) {
				return err
			}
		}
		return nil
	})
	loop(func() error {
		_, err := e.PurgeFinished()
		return err
	})
	sittings.Wait()
	close(stop)
	admin.Wait()
	if t.Failed() {
		return
	}

	for _, exam := range []string{"capped", "open"} {
		var ids []string
		starts, handedOut := 0, make(map[string]int)
		for _, batch := range results {
			for _, st := range batch {
				if st.exam != exam {
					continue
				}
				ids = append(ids, st.id)
				starts++
				for _, id := range st.shown {
					handedOut[id]++
				}
			}
		}
		slices.Sort(ids)
		if got := drained(e, exam); !slices.Equal(got, ids) {
			t.Errorf("%s ledger's finished records = %v, want its sittings %v", exam, got, ids)
		}
		l := e.ledgerOf(exam)
		l.mu.Lock()
		if l.starts != starts || !maps.Equal(l.handedOut, handedOut) {
			t.Errorf("%s ledger counts %d starts, hand-outs %v; the sittings made %d and %v",
				exam, l.starts, l.handedOut, starts, handedOut)
		}
		l.mu.Unlock()
	}
}
