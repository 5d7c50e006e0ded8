package httpapi

import (
	"net/http"

	"mineassess/internal/trace"
)

// Trace opens the request's root span: it ingests an inbound W3C
// traceparent header (adopting the caller's trace ID and parenting under
// the caller's span), carries the span through the request context so the
// engine / WAL / bus layers can hang children off it, and echoes the
// root's traceparent on the response so clients can quote the trace ID
// back to GET /debug/traces. Whether the finished trace is retained is the
// tracer's tail-sampling decision — slow, errored and gap-marked traces
// always survive. A nil tracer disables the middleware entirely.
func Trace(t *trace.Tracer) Middleware {
	return func(next http.Handler) http.Handler {
		if t == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tid, parent, _ := trace.ParseTraceparent(r.Header.Get("Traceparent"))
			ctx, sp := t.StartRootLinked(r.Context(), r.Method+" "+r.URL.Path, tid, parent)
			w.Header().Set("Traceparent", trace.FormatTraceparent(sp.TraceID(), sp.SpanID()))
			sr := &statusRecorder{ResponseWriter: w}
			next.ServeHTTP(sr, r.WithContext(ctx))
			if sr.status == 0 {
				sr.status = http.StatusOK
			}
			sp.SetInt(trace.AttrHTTPStatus, int64(sr.status))
			if sr.status >= http.StatusInternalServerError {
				sp.SetError()
			}
			sp.End()
		})
	}
}
