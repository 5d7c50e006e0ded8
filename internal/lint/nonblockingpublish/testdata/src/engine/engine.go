// Corpus for the nonblockingpublish analyzer (checked in every package).
package engine

import (
	"context"
	"sync"

	"events"
)

type Engine struct {
	mu    sync.Mutex
	state int
	bus   *events.Bus
}

func (e *Engine) flagged(ctx context.Context, ev events.Event) {
	e.mu.Lock()
	e.state++
	e.bus.Publish(ctx, ev) // want `Publish inside critical section of e\.mu`
	e.mu.Unlock()
}

func (e *Engine) flaggedDefer(ctx context.Context, ev events.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state++
	e.bus.Publish(ctx, ev) // want `Publish inside critical section of e\.mu`
}

func (e *Engine) fine(ctx context.Context, ev events.Event) {
	e.mu.Lock()
	e.state++
	e.mu.Unlock()
	e.bus.Publish(ctx, ev) // persist, unlock, then emit
}

func (e *Engine) fineAsync(ctx context.Context, ev events.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state++
	// The goroutine body executes outside the section; not a finding.
	go func() { e.bus.Publish(ctx, ev) }()
}

func (e *Engine) allowed(ctx context.Context, ev events.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	//assess:allow nonblockingpublish: shutdown path, subscribers drained
	e.bus.Publish(ctx, ev)
}
