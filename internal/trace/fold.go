package trace

// Exclusive per-layer attribution of one finished trace, shared by the
// loadgen -trace phase table and the tracer's slow-request log line: each
// pipeline layer (HTTP edge, engine, WAL commit with its enqueue-wait /
// batch-wait / fsync phases, bus publish, SSE) claims its milliseconds
// exactly once, so a slow request reads "the time went to the fsync"
// rather than just "it took 40ms".

import (
	"context"
	"log/slog"
	"strings"

	"mineassess/internal/obs"
)

// Layer is one row of the attribution fold.
type Layer int

// Layers top-down along the request path. The WAL phases break
// LayerWALCommit down and LayerSSEFrame breaks LayerSSEStream down (see
// Sub); the other layers are disjoint.
const (
	LayerEdge Layer = iota
	LayerEngine
	LayerWALCommit
	LayerWALEnqueueWait
	LayerWALBatchWait
	LayerWALFsync
	LayerBusPublish
	LayerSSEStream
	LayerSSEFrame
	NumLayers
)

var layerNames = [NumLayers]string{
	LayerEdge:           "http.edge",
	LayerEngine:         "engine",
	LayerWALCommit:      "wal.commit",
	LayerWALEnqueueWait: "wal.enqueue-wait",
	LayerWALBatchWait:   "wal.batch-wait",
	LayerWALFsync:       "wal.fsync",
	LayerBusPublish:     "bus.publish",
	LayerSSEStream:      "sse.stream",
	LayerSSEFrame:       "sse.frame",
}

// String returns the layer's row name.
func (l Layer) String() string { return layerNames[l] }

// Sub reports whether the layer is a phase nested inside the layer above
// it rather than a disjoint share of the root.
func (l Layer) Sub() bool {
	switch l {
	case LayerWALEnqueueWait, LayerWALBatchWait, LayerWALFsync, LayerSSEFrame:
		return true
	}
	return false
}

// Fold attributes one trace's time to layers, calling emit once per
// sample. Accounting is exclusive on the containers: the HTTP edge is the
// root minus everything its subtree claims, and an engine span is its own
// duration minus the WAL and bus time nested inside it, so the non-Sub
// layers of a non-streaming root sum to the root's duration. An SSE
// stream's root lasts as long as the watcher stays subscribed —
// subscription length, not edge latency — so a root with sse.frame
// children reports as LayerSSEStream instead of LayerEdge.
func Fold(root *SpanData, emit func(l Layer, ms float64)) {
	claimed, streaming := 0.0, false
	for _, c := range root.Children {
		streaming = streaming || c.Name == "sse.frame"
		claimed += foldSpan(c, emit)
	}
	if streaming {
		emit(LayerSSEStream, root.DurationMS)
		return
	}
	emit(LayerEdge, max(root.DurationMS-claimed, 0))
}

// foldSpan records the layers in sd's subtree and returns the
// milliseconds it attributed, so containers can subtract nested layers
// from their own exclusive time.
func foldSpan(sd *SpanData, emit func(Layer, float64)) float64 {
	if strings.HasPrefix(sd.Name, "engine.") || strings.HasPrefix(sd.Name, "cat.") {
		emit(LayerEngine, max(sd.DurationMS-foldChildren(sd, emit), 0))
		return sd.DurationMS
	}
	switch sd.Name {
	case "wal.commit":
		emit(LayerWALCommit, sd.DurationMS)
		for _, c := range sd.Children {
			switch c.Name {
			case "wal.enqueue-wait":
				emit(LayerWALEnqueueWait, c.DurationMS)
			case "wal.batch-wait":
				emit(LayerWALBatchWait, c.DurationMS)
			case "wal.fsync":
				emit(LayerWALFsync, c.DurationMS)
			}
		}
		return sd.DurationMS
	case "bus.publish":
		emit(LayerBusPublish, sd.DurationMS)
		return sd.DurationMS
	case "sse.frame":
		emit(LayerSSEFrame, sd.DurationMS)
		return sd.DurationMS
	}
	return foldChildren(sd, emit)
}

func foldChildren(sd *SpanData, emit func(Layer, float64)) float64 {
	claimed := 0.0
	for _, c := range sd.Children {
		claimed += foldSpan(c, emit)
	}
	return claimed
}

// logSlow writes the one Warn "slow request" record for a finalized trace
// whose root ran for at least the slow threshold. It reads the buffer, so
// it must run before sink hands the buffer to the rings, where another
// finalize may evict and recycle it.
func (t *Tracer) logSlow(b *buf) {
	td := b.export(true)
	var ms [NumLayers]float64
	Fold(td.Root, func(l Layer, v float64) { ms[l] += v })
	status := int64(0)
	root := &b.spans[0]
	for i := 0; i < int(root.NAttrs); i++ {
		if a := root.Attrs[i]; a.Key == AttrHTTPStatus && a.IsInt {
			status = a.Int
		}
	}
	t.log.LogAttrs(context.Background(), slog.LevelWarn, "slow request",
		slog.String(obs.LogKeyRequestID, b.requestID),
		slog.String(obs.LogKeyTraceID, td.TraceID),
		slog.String(obs.LogKeyReason, td.Reason),
		slog.String(obs.LogKeyRoot, td.RootName),
		slog.Int64(obs.LogKeyStatus, status),
		slog.Float64(obs.LogKeyDurationMS, td.DurationMS),
		slog.Group(obs.LogKeyLayerMS,
			slog.Float64(obs.LogKeyLayerHTTPEdge, ms[LayerEdge]),
			slog.Float64(obs.LogKeyLayerEngine, ms[LayerEngine]),
			slog.Float64(obs.LogKeyLayerWALCommit, ms[LayerWALCommit]),
			slog.Float64(obs.LogKeyLayerWALEnqueueWait, ms[LayerWALEnqueueWait]),
			slog.Float64(obs.LogKeyLayerWALBatchWait, ms[LayerWALBatchWait]),
			slog.Float64(obs.LogKeyLayerWALFsync, ms[LayerWALFsync]),
			slog.Float64(obs.LogKeyLayerBusPublish, ms[LayerBusPublish]),
			slog.Float64(obs.LogKeyLayerSSEStream, ms[LayerSSEStream]),
			slog.Float64(obs.LogKeyLayerSSEFrame, ms[LayerSSEFrame]),
		),
	)
}
