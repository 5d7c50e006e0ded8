package httpapi

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"mineassess/internal/obs"
	"mineassess/internal/trace"
)

// newEdge returns a Server whose request edge is configured from o and
// whose route table is still empty (compile fills it).
func newEdge(o Options) *Server {
	// The per-learner bucket shapes individual traffic; the per-IP bucket
	// (ipAggregateFactor times the learner rate) caps what any one address
	// can push regardless of the client-controlled X-Learner-ID header.
	burst := max(o.Burst, 1) // clamp before multiplying so the IP bucket keeps its 16x headroom
	return &Server{
		metrics:    NewMetricsWith(o.Obs),
		logger:     o.Logger,
		tracer:     o.Tracer,
		perLearner: NewRateLimiter(o.RatePerSec, burst, o.Now),
		perIP:      NewRateLimiter(o.RatePerSec*ipAggregateFactor, burst*ipAggregateFactor, o.Now),
	}
}

// ipAggregateFactor is the per-IP rate ceiling as a multiple of the
// per-learner rate: a NAT'd classroom gets this many learners' worth of
// aggregate headroom per address, while a header-spoofing client is still
// bounded.
const ipAggregateFactor = 16

// requestIDSeq distinguishes requests within one process; the random prefix
// distinguishes processes, so IDs stay unique across restarts and replicas.
var (
	requestIDSeq    atomic.Uint64
	requestIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
)

// ServeHTTP is the request edge. It starts the request's one clock,
// assigns the request ID (honouring an inbound X-Request-ID so IDs
// correlate across proxies) and echoes it, opens the root span when a
// tracer is set (adopting an inbound W3C Traceparent and echoing the
// root's), finds the row, applies the per-learner and then the per-IP
// bucket, and calls the endpoint. closeOut ends the request on every
// path, a panic included.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := r.Header.Get("X-Request-ID")
	if rid == "" {
		rid = fmt.Sprintf("%s-%06d", requestIDPrefix, requestIDSeq.Add(1))
	}
	w.Header().Set("X-Request-ID", rid)
	ctx := obs.WithRequestID(r.Context(), rid)
	var root trace.Span
	if s.tracer != nil {
		tid, parent, _ := trace.ParseTraceparent(r.Header.Get("Traceparent"))
		ctx, root = s.tracer.StartRootLinked(ctx, r.Method+" "+r.URL.Path, tid, parent)
		w.Header().Set("Traceparent", trace.FormatTraceparent(root.TraceID(), root.SpanID()))
	}
	r = r.WithContext(ctx)
	ep, id, rs := s.lookup(r.Method, r.URL.Path)
	sr := &statusRecorder{ResponseWriter: w}
	s.metrics.inFlight.Add(1)
	defer s.closeOut(sr, r, rs, root, start)
	if l := s.refusedBy(r); l != nil {
		s.metrics.rateLimited.Inc()
		sr.Header().Set("Retry-After", l.retryAfter())
		writeErr(sr, &Error{Code: CodeRateLimited, Message: "request rate exceeded"})
		return
	}
	ep(sr, r, id)
}

// closeOut ends a request however its endpoint returned. A panic becomes
// the INTERNAL envelope, unless the endpoint had already written headers
// (the truncated body then signals the failure). The status, 200 if none
// was written, and the duration since start are then recorded once each
// in the row's series, the access log and the root span.
func (s *Server) closeOut(sr *statusRecorder, r *http.Request, rs *routeStats, root trace.Span, start time.Time) {
	if p := recover(); p != nil {
		s.metrics.panics.Inc()
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelError, "panic",
				slog.String(obs.LogKeyRequestID, obs.RequestIDFrom(r.Context())),
				slog.Any(obs.LogKeyPanic, p),
				slog.String(obs.LogKeyPath, r.URL.Path),
			)
		}
		if sr.status == 0 {
			writeErr(sr, &Error{Code: CodeInternal, Message: "internal error"})
		}
	}
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	end := time.Now()
	d := end.Sub(start)
	s.metrics.inFlight.Add(-1)
	rs.observe(sr.status, d, root.TraceIDHex())
	if s.logger != nil {
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String(obs.LogKeyRequestID, obs.RequestIDFrom(r.Context())),
			slog.String(obs.LogKeyMethod, r.Method),
			slog.String(obs.LogKeyPath, r.URL.Path),
			slog.Int(obs.LogKeyStatus, sr.status),
			slog.Int(obs.LogKeyBytes, sr.bytes),
			slog.Float64(obs.LogKeyDurationMS, float64(d.Microseconds())/1000),
			slog.String(obs.LogKeyLearner, learnerKey(r)),
		)
	}
	root.SetInt(trace.AttrHTTPStatus, int64(sr.status))
	if sr.status >= http.StatusInternalServerError {
		root.SetError()
	}
	root.EndAt(end)
}

// refusedBy applies the token buckets and returns the one that refused r,
// or nil. Two dimensions compose:
//
//   - perLearner shapes each identified learner (X-Learner-ID header) and
//     is checked first, so a learner hammering the API exhausts only their
//     own bucket — header-less peers behind the same NAT are untouched.
//     Requests without the header skip this bucket (browser and SCO
//     traffic never sets it; keying them all to one IP bucket at the
//     learner rate would throttle a whole classroom to one learner's
//     allowance).
//   - perIP bounds each connection address's aggregate. Because the
//     header is client-controlled, this is what stops a client cycling
//     fabricated learner IDs — every fabricated ID gets a fresh learner
//     bucket, but never a fresh IP bucket.
//
// Nil limiters (Options.RatePerSec <= 0) disable their dimension.
func (s *Server) refusedBy(r *http.Request) *RateLimiter {
	if s.perLearner != nil {
		if id := r.Header.Get("X-Learner-ID"); id != "" && !s.perLearner.Allow(id) {
			return s.perLearner
		}
	}
	if s.perIP != nil && !s.perIP.Allow(clientIP(r)) {
		return s.perIP
	}
	return nil
}

// clientIP extracts the connection's IP, the one identity a client cannot
// choose.
func clientIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// learnerKey identifies the learner a request belongs to for logging: the
// X-Learner-ID header when the client sets one (the SDK does), else the
// client IP.
func learnerKey(r *http.Request) string {
	if id := r.Header.Get("X-Learner-ID"); id != "" {
		return id
	}
	return clientIP(r)
}

// statusRecorder captures the response status and size for the close-out.
// WriteHeader-less handlers are recorded as 200 on first Write.
//
// The wrapper must not hide the underlying writer's optional interfaces:
// a streaming handler that type-asserts http.Flusher (SSE, long polls) or
// http.Hijacker (websockets) has to keep working behind the edge, so both
// are forwarded, and Unwrap lets http.ResponseController reach every
// capability of the wrapped writer.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sr *statusRecorder) WriteHeader(status int) {
	if sr.status == 0 {
		sr.status = status
	}
	sr.ResponseWriter.WriteHeader(status)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += n
	return n, err
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// Flush forwards to the underlying writer when it streams; flushing commits
// the headers, so an unset status is recorded as 200. A non-flushing
// underlying writer makes this a no-op — direct http.Flusher asserts have
// no error channel — so FlushError below is what reports the capability
// faithfully.
func (sr *statusRecorder) Flush() {
	f, ok := sr.ResponseWriter.(http.Flusher)
	if !ok {
		return
	}
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	f.Flush()
}

// FlushError is what http.ResponseController calls in preference to Flush:
// it delegates through the wrapped writer's own controller, so a
// non-flushing underlying writer yields http.ErrNotSupported instead of
// Flush's silent no-op — streaming handlers can trust the error to detect
// a writer that cannot stream.
func (sr *statusRecorder) FlushError() error {
	err := http.NewResponseController(sr.ResponseWriter).Flush()
	if err == nil && sr.status == 0 {
		sr.status = http.StatusOK
	}
	return err
}

// Hijack forwards to the underlying writer; writers that cannot hijack
// return the standard http.ErrNotSupported so callers distinguish "not a
// hijacker" from a hijack failure.
func (sr *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if h, ok := sr.ResponseWriter.(http.Hijacker); ok {
		return h.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}
