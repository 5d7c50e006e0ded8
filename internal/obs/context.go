package obs

import "context"

// The request ID travels by context from the HTTP edge to everything
// the request reaches: the access log, the tracer's slow-request line and
// trace.Detach'd event publishes all read it. The key lives here — the
// lowest common import — so those layers need not depend on the HTTP
// package to read it.

type requestIDKey struct{}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom extracts the request ID, or "" if none is set.
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
