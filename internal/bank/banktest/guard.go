// Package banktest holds test support for code that reads a bank.Storage.
// It is imported only by tests.
package banktest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"mineassess/internal/bank"
	"mineassess/internal/item"
)

// Guard wraps store for one test and fails the test, when it ends, if any
// stored problem, exam or adaptive-session record no longer encodes as it
// did when it was stored. A read returns the stored value itself, shared
// with every other reader, so such a change is code editing a shared value
// in place.
//
// The guard watches every value stored when it wraps the store and every
// value written through it later. Writes that bypass it are not watched,
// but they cause no false alarm: a write replaces the stored value instead
// of changing the old one.
func Guard(t testing.TB, store bank.Storage) bank.Storage {
	t.Helper()
	g := &guarded{Storage: store, enc: make(map[any][]byte)}
	for _, id := range store.ProblemIDs() {
		g.watchProblem(id)
	}
	for _, id := range store.ExamIDs() {
		g.watchExam(id)
	}
	for _, id := range store.AdaptiveSessionIDs() {
		g.watchSession(id)
	}
	t.Cleanup(func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		for v, was := range g.enc {
			if now := encode(v); !bytes.Equal(now, was) {
				t.Errorf("banktest: a stored %T was modified in place\nstored: %s\nnow:    %s", v, was, now)
			}
		}
	})
	return g
}

// guarded is the Storage Guard returns: reads pass through, and each write
// that succeeds is followed by a read of the stored value it left, whose
// encoding the guard keeps.
type guarded struct {
	bank.Storage
	mu  sync.Mutex
	enc map[any][]byte // watched stored value -> its encoding when stored
}

func encode(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		return []byte(fmt.Sprintf("unencodable: %v", err))
	}
	return raw
}

func (g *guarded) watch(v any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, seen := g.enc[v]; !seen {
		g.enc[v] = encode(v)
	}
}

func (g *guarded) watchProblem(id string) {
	if p, err := g.Storage.Problem(id); err == nil {
		g.watch(p)
	}
}

func (g *guarded) watchExam(id string) {
	if e, err := g.Storage.Exam(id); err == nil {
		g.watch(e)
	}
}

func (g *guarded) watchSession(id string) {
	if rec, err := g.Storage.AdaptiveSession(id); err == nil {
		g.watch(rec)
	}
}

func (g *guarded) AddProblem(p *item.Problem) error {
	err := g.Storage.AddProblem(p)
	if err == nil {
		g.watchProblem(p.ID)
	}
	return err
}

// AddProblemCtx keeps a journal's traced insert traced through the guard.
func (g *guarded) AddProblemCtx(ctx context.Context, p *item.Problem) error {
	var err error
	if a, ok := g.Storage.(interface {
		AddProblemCtx(context.Context, *item.Problem) error
	}); ok {
		err = a.AddProblemCtx(ctx, p)
	} else {
		err = g.Storage.AddProblem(p)
	}
	if err == nil {
		g.watchProblem(p.ID)
	}
	return err
}

func (g *guarded) UpdateProblem(p *item.Problem) error {
	err := g.Storage.UpdateProblem(p)
	if err == nil {
		g.watchProblem(p.ID)
	}
	return err
}

func (g *guarded) Rollback(id string) (*item.Problem, error) {
	p, err := g.Storage.Rollback(id)
	if err == nil {
		g.watch(p)
	}
	return p, err
}

func (g *guarded) AddExam(e *bank.ExamRecord) error {
	err := g.Storage.AddExam(e)
	if err == nil {
		g.watchExam(e.ID)
	}
	return err
}

func (g *guarded) UpdateExam(e *bank.ExamRecord) error {
	err := g.Storage.UpdateExam(e)
	if err == nil {
		g.watchExam(e.ID)
	}
	return err
}

func (g *guarded) PutAdaptiveSession(rec *bank.AdaptiveSessionRecord) error {
	err := g.Storage.PutAdaptiveSession(rec)
	if err == nil {
		g.watchSession(rec.ID)
	}
	return err
}

// PutAdaptiveSessionCtx keeps a journal's traced persist traced through the
// guard.
func (g *guarded) PutAdaptiveSessionCtx(ctx context.Context, rec *bank.AdaptiveSessionRecord) error {
	var err error
	if p, ok := g.Storage.(interface {
		PutAdaptiveSessionCtx(context.Context, *bank.AdaptiveSessionRecord) error
	}); ok {
		err = p.PutAdaptiveSessionCtx(ctx, rec)
	} else {
		err = g.Storage.PutAdaptiveSession(rec)
	}
	if err == nil {
		g.watchSession(rec.ID)
	}
	return err
}
