package catdelivery

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"mineassess/internal/adaptive"
	"mineassess/internal/bank"
	"mineassess/internal/bank/banktest"
)

// cachedPools lists the exams whose pools the engine caches, sorted.
func (e *Engine) cachedPools() []string {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	ids := make([]string, 0, len(e.pools))
	for id := range e.pools {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// droppedPools lists the exams whose displaced pools the engine keeps to
// lend their grids, sorted.
func (e *Engine) droppedPools() []string {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	ids := make([]string, 0, len(e.dropped))
	for id := range e.dropped {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// examHookStore runs onExam, once, before the next Exam read: a bank write
// or a whole Start that races a pool build.
type examHookStore struct {
	bank.Storage
	onExam func()
}

func (h *examHookStore) Exam(id string) (*bank.ExamRecord, error) {
	if f := h.onExam; f != nil {
		h.onExam = nil
		f()
	}
	return h.Storage.Exam(id)
}

// TestPoolCacheHoldsOneGeneration: the pool cache keeps the newest bank
// generation only. Deleting exam A drops A's pool at the next start on B,
// and a sitting already on A still answers. A build that finishes after a
// newer one is served but not cached, and a write that races a build makes
// the next start rebuild.
func TestPoolCacheHoldsOneGeneration(t *testing.T) {
	ctx := context.Background()
	inner := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, inner, "pa", 10, 1.5, 1)
	calibratedExam(t, inner, "pb", 10, 1.5, 1)
	store := &examHookStore{Storage: inner}
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	onA, viewA, err := e.Start(ctx, "pa", "a", Config{MaxItems: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Start(ctx, "pb", "b", Config{MaxItems: 3}, 2); err != nil {
		t.Fatal(err)
	}
	if got := e.cachedPools(); !slices.Equal(got, []string{"pa", "pb"}) {
		t.Fatalf("cached pools = %v, want [pa pb]", got)
	}
	if err := inner.DeleteExam("pa"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Start(ctx, "pb", "b2", Config{MaxItems: 3}, 3); err != nil {
		t.Fatal(err)
	}
	if got := e.cachedPools(); !slices.Equal(got, []string{"pb"}) {
		t.Fatalf("cached pools after deleting pa = %v, want [pb]", got)
	}
	if _, err := e.SubmitResponse(ctx, onA.ID, viewA.ProblemID, "A"); err != nil {
		t.Errorf("sitting on the deleted exam stopped answering: %v", err)
	}

	// An edit and a whole start on pb land while pc's pool builds: pc's
	// build read the older generation, so it is served but not cached.
	calibratedExam(t, inner, "pc", 10, 1.5, 1)
	edit := func(id, text string) {
		p, err := inner.Problem(id)
		if err != nil {
			t.Fatal(err)
		}
		p = p.Clone()
		p.Question = text
		if err := inner.UpdateProblem(p); err != nil {
			t.Fatal(err)
		}
	}
	store.onExam = func() {
		edit("pb-q001", "newer")
		if _, _, err := e.Start(ctx, "pb", "b3", Config{MaxItems: 3}, 4); err != nil {
			t.Error(err)
		}
	}
	late, _, err := e.Start(ctx, "pc", "c", Config{MaxItems: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if late.pool == nil {
		t.Fatal("late build not served")
	}
	if got := e.cachedPools(); !slices.Equal(got, []string{"pb"}) {
		t.Fatalf("cached pools after a late build = %v, want [pb]", got)
	}

	// A write racing the build lands in the content but not in the tag,
	// so the next start rebuilds rather than trusting the older tag.
	store.onExam = func() { edit("pc-q001", "raced") }
	first, _, err := e.Start(ctx, "pc", "c2", Config{MaxItems: 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := e.Start(ctx, "pc", "c3", Config{MaxItems: 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if first.pool == second.pool {
		t.Error("a pool built across a racing write was served at the newer generation")
	}
	for _, s := range []*Session{first, second} {
		if got := s.pool.problem("pc-q001").Question; got != "raced" {
			t.Errorf("%s question = %q, want %q", s.ID, got, "raced")
		}
	}
	if third, _, err := e.Start(ctx, "pc", "c4", Config{MaxItems: 3}, 8); err != nil || third.pool != second.pool {
		t.Errorf("unchanged bank rebuilt the pool (err %v)", err)
	}
}

// TestPoolKeepsGridAcrossUnrelatedWrites: a write that leaves the exam's
// items and parameters alone still rebuilds the pool at the next start,
// re-reading its problems, but the rebuilt pool shares the previous
// information grid. A parameter change builds a new grid.
func TestPoolKeepsGridAcrossUnrelatedWrites(t *testing.T) {
	ctx := context.Background()
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 20, 1.5, 2)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := func(student string) *Session {
		t.Helper()
		s, _, err := e.Start(ctx, "pool", student, Config{MaxItems: 3}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := start("a")
	p, err := newMC("unrelated")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AddProblem(p); err != nil {
		t.Fatal(err)
	}
	second := start("b")
	if second.pool == first.pool {
		t.Fatal("a write moved the generation, yet the pool was not rebuilt")
	}
	if second.pool.grid != first.pool.grid {
		t.Error("an unrelated AddProblem rebuilt the information grid")
	}

	// An edit to a pool problem's text reaches the next sitting on the
	// same grid.
	edited, err := store.Problem("pool-q002")
	if err != nil {
		t.Fatal(err)
	}
	edited = edited.Clone()
	edited.Question = "edited"
	if err := store.UpdateProblem(edited); err != nil {
		t.Fatal(err)
	}
	third := start("c")
	if got := third.pool.problem("pool-q002").Question; got != "edited" {
		t.Errorf("next Start question = %q, want %q", got, "edited")
	}
	if third.pool.grid != first.pool.grid {
		t.Error("a text edit rebuilt the information grid")
	}

	rec, err := store.Exam("pool")
	if err != nil {
		t.Fatal(err)
	}
	refit := rec.ItemParams["pool-q001"]
	refit.B += 0.5
	if err := store.UpdateExam(withParams(rec, "pool-q001", refit)); err != nil {
		t.Fatal(err)
	}
	if fourth := start("d"); fourth.pool.grid == first.pool.grid {
		t.Error("a parameter change kept the old information grid")
	}
}

// TestPoolRebuildRacesSittings: sittings start and answer while a writer
// edits a pool problem's question K times and then recalibrates. Once the
// writer returns, the next Start serves the last text and the refit
// parameters, and a sitting started before the edits keeps its original
// text. CI runs it repeatedly under -race.
func TestPoolRebuildRacesSittings(t *testing.T) {
	ctx := context.Background()
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pool", 30, 1.5, 1.5)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Learners answer everything correctly, so the pool refits easier.
	for i := 0; i < 6; i++ {
		s, view, err := e.Start(ctx, "pool", fmt.Sprintf("warm%d", i), Config{MaxItems: 30}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		respondAll(t, e, s.ID, view)
	}
	early, earlyView, err := e.Start(ctx, "pool", "early", Config{MaxItems: 5}, 99)
	if err != nil {
		t.Fatal(err)
	}
	edited, original := earlyView.ProblemID, earlyView.Question

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg, ready sync.WaitGroup
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopReaders()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		ready.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, view, err := e.Start(ctx, "pool", fmt.Sprintf("g%d-%d", g, i), Config{MaxItems: 4}, int64(g*1000+i))
				if i == 0 {
					ready.Done()
				}
				for err == nil && view != nil {
					var prog *Progress
					if prog, err = e.SubmitResponse(ctx, s.ID, view.ProblemID, "A"); err == nil {
						view = prog.Next
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	// Every reader is mid-loop before the first edit.
	ready.Wait()
	const K = 20
	var last string
	for k := 1; k <= K; k++ {
		p, err := store.Problem(edited)
		if err != nil {
			t.Fatal(err)
		}
		p = p.Clone()
		last = fmt.Sprintf("edit %d of %s", k, edited)
		p.Question = last
		if err := store.UpdateProblem(p); err != nil {
			t.Fatal(err)
		}
	}
	cal, err := e.Recalibrate("pool", 5)
	if err != nil || len(cal.Updated) == 0 {
		t.Fatalf("recalibrate = %+v, %v", cal, err)
	}
	refit, err := store.Exam("pool")
	if err != nil {
		t.Fatal(err)
	}

	// The readers keep answering: their session writes leave the
	// generation, and so the next Start's pool, alone.
	next, _, err := e.Start(ctx, "pool", "next", Config{MaxItems: 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.pool.problem(edited).Question; got != last {
		t.Errorf("next Start question = %q, want the last edit %q", got, last)
	}
	for _, it := range next.pool.items {
		if it.Params != refit.ItemParams[it.ID] {
			t.Errorf("next Start %s params = %+v, want the refit %+v", it.ID, it.Params, refit.ItemParams[it.ID])
		}
	}
	if v, err := e.NextItem(early.ID); err != nil || v.ProblemID != edited || v.Question != original {
		t.Errorf("early sitting's pending item = %+v, %v; want %s with its original text %q", v, err, edited, original)
	}
	stopReaders()
	close(errs)
	for err := range errs {
		t.Errorf("reader: %v", err)
	}
}

// gatedExamStore counts Exam reads and holds each one until want reads
// have arrived or a short wait has passed, so that pool builds started
// together overlap. fail, when set, is the next read's error.
type gatedExamStore struct {
	bank.Storage
	want int
	all  chan struct{}

	mu    sync.Mutex
	reads int
	fail  error
}

func (g *gatedExamStore) Exam(id string) (*bank.ExamRecord, error) {
	g.mu.Lock()
	g.reads++
	if g.reads == g.want {
		close(g.all)
	}
	err := g.fail
	g.fail = nil
	g.mu.Unlock()
	select {
	case <-g.all:
	case <-time.After(100 * time.Millisecond):
	}
	if err != nil {
		return nil, err
	}
	return g.Storage.Exam(id)
}

// TestPoolBuiltOncePerGeneration: concurrent first starts on an exam share
// one pool, built from one Exam read, even when every build would
// overlap. A failed build is not cached: the next start builds again.
func TestPoolBuiltOncePerGeneration(t *testing.T) {
	ctx := context.Background()
	const n = 16
	inner := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, inner, "pool", 100, 1.5, 2)
	store := &gatedExamStore{Storage: inner, want: n, all: make(chan struct{})}
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sittings := make([]*Session, n)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := range sittings {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			s, _, err := e.Start(ctx, "pool", fmt.Sprintf("s%02d", i), Config{MaxItems: 3}, int64(i))
			if err != nil {
				t.Error(err)
				return
			}
			sittings[i] = s
		}(i)
	}
	close(gate)
	wg.Wait()
	pools := make(map[*examPool]bool)
	for _, s := range sittings {
		if s != nil {
			pools[s.pool] = true
		}
	}
	if len(pools) != 1 || store.reads != 1 {
		t.Errorf("%d concurrent first starts built %d pools from %d Exam reads, want 1 from 1", n, len(pools), store.reads)
	}

	calibratedExam(t, inner, "other", 10, 1.5, 1)
	boom := errors.New("exam read failed")
	store.mu.Lock()
	store.fail = boom
	store.mu.Unlock()
	if _, _, err := e.Start(ctx, "other", "x", Config{MaxItems: 3}, 1); !errors.Is(err, boom) {
		t.Fatalf("start on a failing read = %v, want %v", err, boom)
	}
	if _, _, err := e.Start(ctx, "other", "y", Config{MaxItems: 3}, 2); err != nil {
		t.Errorf("a failed build was cached: the next start = %v", err)
	}
}

// TestPoolReusesGridsAcrossExams: with an unrelated bank write before each
// pair of starts on two exams, each start builds its exam's pool at a new
// generation, and that build's move to the generation displaces the other
// exam's entry. Each exam still keeps one information grid: a displaced
// entry lends its grid to its exam's next build. Displaced entries last
// one generation move, so a deleted exam's pool does not pile up.
func TestPoolReusesGridsAcrossExams(t *testing.T) {
	ctx := context.Background()
	store := banktest.Guard(t, bank.NewSharded(4))
	calibratedExam(t, store, "pa", 50, 1.5, 2)
	calibratedExam(t, store, "pb", 50, 1.5, 2)
	e, err := NewEngine(store, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	unrelated := 0
	write := func() {
		t.Helper()
		unrelated++
		p, err := newMC(fmt.Sprintf("unrelated-%d", unrelated))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AddProblem(p); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 10
	grids := map[string]map[*adaptive.InfoGrid]bool{"pa": {}, "pb": {}}
	for round := 0; round < rounds; round++ {
		write()
		for _, exam := range []string{"pa", "pb"} {
			s, _, err := e.Start(ctx, exam, "s", Config{MaxItems: 3}, int64(round))
			if err != nil {
				t.Fatal(err)
			}
			grids[exam][s.pool.grid] = true
		}
	}
	for exam, g := range grids {
		if len(g) != 1 {
			t.Errorf("exam %s: %d starts after unrelated writes built %d grids, want 1", exam, rounds, len(g))
		}
	}

	if err := store.DeleteExam("pb"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		write()
		if _, _, err := e.Start(ctx, "pa", "s", Config{MaxItems: 3}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.droppedPools(); len(got) != 0 {
		t.Errorf("displaced pools kept after two generation moves = %v, want none", got)
	}
}
