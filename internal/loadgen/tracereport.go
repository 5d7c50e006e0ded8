package loadgen

// Per-phase latency attribution from captured trace trees. A capacity run
// tells you *when* the knee arrives; the traces tell you *where* the added
// milliseconds live once it does. BuildTraceReport folds every retained and
// recent trace from the in-process target's tail sampler into one table:
// each pipeline phase (HTTP edge, engine, WAL commit with its enqueue-wait /
// batch-wait / fsync sub-phases, bus publish, SSE frame writes) gets a
// sample population and its p50/p99/max, so the report reads "the knee is a
// batch-wait knee" rather than just "p99 doubled".

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"mineassess/internal/trace"
)

// PhaseStat summarizes one pipeline phase's latency population across the
// captured traces. Sub is true for WAL sub-phases, which render indented
// under wal.commit.
type PhaseStat struct {
	Phase string  `json:"phase"`
	Sub   bool    `json:"sub,omitempty"`
	Count int     `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`
}

// TraceReport is the aggregated attribution across every distinct captured
// trace (retained ∪ recent, deduplicated by trace ID).
type TraceReport struct {
	Traces   int         `json:"traces"`
	Retained int         `json:"retained"`
	Phases   []PhaseStat `json:"phases"`
}

// BuildTraceReport folds retained and recent trace trees (as returned by
// trace.Tracer.Retained/Recent) into per-phase latency statistics with
// trace.Fold's exclusive accounting. Traces appearing in both sinks count
// once.
func BuildTraceReport(retained, recent []*trace.TraceData) *TraceReport {
	var samples [trace.NumLayers][]float64
	add := func(l trace.Layer, ms float64) { samples[l] = append(samples[l], ms) }
	seen := make(map[string]bool, len(retained)+len(recent))
	rep := &TraceReport{}
	for i, sink := range [][]*trace.TraceData{retained, recent} {
		for _, td := range sink {
			if td.Root == nil || seen[td.TraceID] {
				continue
			}
			seen[td.TraceID] = true
			rep.Traces++
			trace.Fold(td.Root, add)
		}
		if i == 0 {
			rep.Retained = rep.Traces
		}
	}
	for l := trace.Layer(0); l < trace.NumLayers; l++ {
		vals := samples[l]
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		rep.Phases = append(rep.Phases, PhaseStat{
			Phase: l.String(),
			Sub:   l.Sub(),
			Count: len(vals),
			P50Ms: quantileMs(vals, 0.50),
			P99Ms: quantileMs(vals, 0.99),
			MaxMs: vals[len(vals)-1],
		})
	}
	return rep
}

// quantileMs reads quantile q from an ascending-sorted sample slice
// (nearest-rank, matching the obs histogram's reporting convention).
func quantileMs(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WriteTraceReport renders the attribution table. WAL sub-phases indent
// under wal.commit; their sum can undershoot the parent (time between the
// waiter's enqueue and the committer noticing) but never exceeds it.
func WriteTraceReport(w io.Writer, rep *TraceReport) {
	fmt.Fprintf(w, "\n--- phase attribution (%d traces, %d tail-retained) ---\n", rep.Traces, rep.Retained)
	if rep.Traces == 0 {
		fmt.Fprintln(w, "no traces captured (is the target traced? hermetic mode needs -trace)")
		return
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "PHASE\tCOUNT\tP50 ms\tP99 ms\tMAX ms\t")
	for _, ps := range rep.Phases {
		name := ps.Phase
		if ps.Sub {
			name = "  " + name
		}
		// tabwriter right-aligns every cell; the phase name cell keeps its
		// indent by padding on the right instead.
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\t\n", name, ps.Count, ps.P50Ms, ps.P99Ms, ps.MaxMs)
	}
	tw.Flush()
}
