package obs

// Structured log keys shared by every layer. The slow-request drill-down
// workflow greps one key — request_id — from the HTTP access log to the
// tracer's "slow request" line and on to the span tree under its trace_id,
// so the spelling must never drift between call sites. The slogkeys
// analyzer enforces that every slog key is a compile-time snake_case
// constant; new keys belong here, not inline, once a second call site
// appears.
const (
	// LogKeyRequestID correlates one request's lines across layers.
	LogKeyRequestID = "request_id"
	// LogKeyTraceID is the request's trace ID (GET /debug/traces?id=).
	LogKeyTraceID = "trace_id"
	// LogKeyReason is why the tail sampler retained a trace (error, gap,
	// slow, always, sample) or "" when it did not.
	LogKeyReason = "reason"
	// LogKeyRoot names a trace's root span ("METHOD path").
	LogKeyRoot = "root"
	// LogKeyDurationMS is the elapsed wall time in milliseconds.
	LogKeyDurationMS = "duration_ms"
	// LogKeyMethod is the HTTP request method.
	LogKeyMethod = "method"
	// LogKeyPath is the HTTP request path.
	LogKeyPath = "path"
	// LogKeyStatus is the HTTP response status code.
	LogKeyStatus = "status"
	// LogKeyBytes is the HTTP response body size.
	LogKeyBytes = "bytes"
	// LogKeyLearner is the rate-limit bucket / learner identity.
	LogKeyLearner = "learner"
	// LogKeyPanic carries the recovered panic value.
	LogKeyPanic = "panic"

	// LogKeyLayerMS groups a slow request's exclusive milliseconds per
	// layer (trace.Fold); the keys below name the layers inside it.
	LogKeyLayerMS             = "layer_ms"
	LogKeyLayerHTTPEdge       = "http_edge"
	LogKeyLayerEngine         = "engine"
	LogKeyLayerWALCommit      = "wal_commit"
	LogKeyLayerWALEnqueueWait = "wal_enqueue_wait"
	LogKeyLayerWALBatchWait   = "wal_batch_wait"
	LogKeyLayerWALFsync       = "wal_fsync"
	LogKeyLayerBusPublish     = "bus_publish"
	LogKeyLayerSSEStream      = "sse_stream"
	LogKeyLayerSSEFrame       = "sse_frame"
)
