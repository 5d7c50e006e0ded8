package trace_test

import (
	"math"
	"testing"

	"mineassess/internal/trace"
)

// span builds a synthetic exported span.
func span(name string, ms float64, children ...*trace.SpanData) *trace.SpanData {
	return &trace.SpanData{Name: name, DurationMS: ms, Children: children}
}

// TestFoldExclusiveAccounting pins the per-layer attribution that both
// the loadgen phase table and the slow-request log line report: each
// layer's exclusive milliseconds per tree, and that the disjoint layers
// of a non-streaming root add back up to the root.
func TestFoldExclusiveAccounting(t *testing.T) {
	cases := []struct {
		name      string
		root      *trace.SpanData
		want      map[trace.Layer]float64
		streaming bool
	}{
		{
			name: "fixed answer",
			root: span("POST /v1/sessions/s:answer", 10,
				span("engine.answer", 6,
					span("wal.commit", 4,
						span("wal.enqueue-wait", 0.5),
						span("wal.batch-wait", 1),
						span("wal.fsync", 2)),
					span("bus.publish", 0.5))),
			want: map[trace.Layer]float64{
				trace.LayerEdge:           4,
				trace.LayerEngine:         1.5,
				trace.LayerWALCommit:      4,
				trace.LayerWALEnqueueWait: 0.5,
				trace.LayerWALBatchWait:   1,
				trace.LayerWALFsync:       2,
				trace.LayerBusPublish:     0.5,
			},
		},
		{
			name: "adaptive respond",
			root: span("POST /v1/adaptive-sessions/c:respond", 8,
				span("cat.respond", 7,
					span("wal.commit", 3,
						span("wal.enqueue-wait", 0.2),
						span("wal.batch-wait", 0.8),
						span("wal.fsync", 1.5)),
					span("bus.publish", 0.4),
					span("bus.publish", 0.3))),
			want: map[trace.Layer]float64{
				trace.LayerEdge:           1,
				trace.LayerEngine:         3.3,
				trace.LayerWALCommit:      3,
				trace.LayerWALEnqueueWait: 0.2,
				trace.LayerWALBatchWait:   0.8,
				trace.LayerWALFsync:       1.5,
				trace.LayerBusPublish:     0.7,
			},
		},
		{
			// Authoring writes commit straight under the root: the edge
			// keeps only what the commit does not claim.
			name: "authoring write",
			root: span("POST /v1/problems", 5,
				span("wal.commit", 4, span("wal.fsync", 3))),
			want: map[trace.Layer]float64{
				trace.LayerEdge:      1,
				trace.LayerWALCommit: 4,
				trace.LayerWALFsync:  3,
			},
		},
		{
			name: "sse stream",
			root: span("GET /v1/exams/e/live", 500,
				span("sse.frame", 0.1),
				span("sse.frame", 0.2),
				span("sse.frame", 0.3)),
			want: map[trace.Layer]float64{
				trace.LayerSSEStream: 500,
				trace.LayerSSEFrame:  0.6,
			},
			streaming: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [trace.NumLayers]float64
			var seen [trace.NumLayers]bool
			trace.Fold(tc.root, func(l trace.Layer, ms float64) {
				got[l] += ms
				seen[l] = true
			})
			top := 0.0
			for l := trace.Layer(0); l < trace.NumLayers; l++ {
				want, ok := tc.want[l]
				if ok != seen[l] || math.Abs(got[l]-want) > 1e-9 {
					t.Errorf("%s = %v (emitted %v), want %v (emitted %v)", l, got[l], seen[l], want, ok)
				}
				if !l.Sub() {
					top += got[l]
				}
			}
			if !tc.streaming && math.Abs(top-tc.root.DurationMS) > 1e-9 {
				t.Errorf("disjoint layers sum to %v, root is %v", top, tc.root.DurationMS)
			}
		})
	}
}
