// Corpus for the ctxflow analyzer.
package reqscope

import (
	"context"
	"net/http"
)

type engine struct{}

func (e *engine) work(ctx context.Context) error { return ctx.Err() }

// An HTTP handler minting fresh contexts: flagged.
func handleThing(w http.ResponseWriter, r *http.Request) {
	e := &engine{}
	_ = e.work(context.Background()) // want `context.Background\(\) inside request-scoped handleThing`
	_ = e.work(context.TODO())       // want `context.TODO\(\) inside request-scoped handleThing`
	w.WriteHeader(http.StatusOK)
}

// Handler shape via method with extra params: still a handler.
func (e *engine) serveThing(w http.ResponseWriter, r *http.Request, id string) {
	_ = e.work(context.Background()) // want `context.Background\(\) inside request-scoped serveThing`
	_ = id
}

// A context-threading engine method: flagged.
func (e *engine) FinishCtx(ctx context.Context, id string) error {
	return e.work(context.Background()) // want `context.Background\(\) inside request-scoped FinishCtx`
}

// Any function handed a context is in scope, whatever its name: flagged.
func (e *engine) Answer(ctx context.Context, id string) error {
	return e.work(context.TODO()) // want `context.TODO\(\) inside request-scoped Answer`
}

// Background inside a goroutine launched by a handler is still a severed
// chain: flagged (detach with trace.Detach instead).
func handleAsync(w http.ResponseWriter, r *http.Request) {
	e := &engine{}
	go func() {
		_ = e.work(context.Background()) // want `context.Background\(\) inside request-scoped handleAsync`
	}()
}

// The threading idiom the analyzer pushes toward: fine.
func handleGood(w http.ResponseWriter, r *http.Request) {
	e := &engine{}
	_ = e.work(r.Context())
}

// An engine method threading its ctx: fine.
func (e *engine) Start(ctx context.Context, id string) error {
	return e.work(ctx)
}

// Not request-scoped — a public wrapper without a ctx param may mint the
// root context for untraced callers: fine.
func Finish(id string) error {
	e := &engine{}
	return e.FinishCtx(context.Background(), id)
}

// Name ends in Ctx but takes no context: not the engine idiom, fine.
func buildCtx(id string) context.Context {
	return context.Background()
}

// Suppression syntax: acknowledged sites pass.
func handleAllowed(w http.ResponseWriter, r *http.Request) {
	e := &engine{}
	//assess:allow ctxflow: exercising the suppression syntax
	_ = e.work(context.Background())
}
