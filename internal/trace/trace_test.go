package trace_test

// Unit tests for the tracing core: W3C traceparent codec, span-tree
// export, the tail sampler's retention reasons and their precedence,
// per-trace span-capacity accounting, context propagation (StartSpan /
// Detach), nil-safety of every handle, and concurrent span collection
// (exercised under -race in CI).

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"mineassess/internal/obs"
	"mineassess/internal/trace"
)

// findTrace returns the exported trace with the given ID, or nil.
func findTrace(list []*trace.TraceData, idHex string) *trace.TraceData {
	for _, td := range list {
		if td.TraceID == idHex {
			return td
		}
	}
	return nil
}

// spanNames flattens an exported tree into a name set.
func spanNames(sd *trace.SpanData, into map[string]int) {
	if sd == nil {
		return
	}
	into[sd.Name]++
	for _, c := range sd.Children {
		spanNames(c, into)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tid, parent, ok := trace.ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) not ok", h)
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace ID = %s", tid)
	}
	if parent.String() != "00f067aa0ba902b7" {
		t.Errorf("parent ID = %s", parent)
	}
	if got := trace.FormatTraceparent(tid, parent); got != h {
		t.Errorf("FormatTraceparent = %q, want %q", got, h)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	const good = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	bad := []string{
		"",
		"00",
		good[:54],                              // truncated
		strings.Replace(good, "00-", "01-", 1), // unknown version
		strings.Replace(good, "4b", "zz", 1),   // bad trace-id hex
		strings.Replace(good, "00f0", "zzf0", 1),
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero parent
		"00+4bf92f3577b34da6a3ce929d0e0e4736+00f067aa0ba902b7+01", // wrong separators
	}
	for _, h := range bad {
		if _, _, ok := trace.ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) ok, want rejection", h)
		}
	}
}

func TestExportedSpanTree(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1, Recent: 8, Retain: 8})
	ctx, root := tr.StartRoot(context.Background(), "GET /thing")
	cctx, child := trace.StartSpan(ctx, "engine.work")
	_, grand := trace.StartSpan(cctx, "wal.commit")
	grand.SetStr("wal.op", "add_problem")
	grand.SetInt("wal.batch", 3)
	grand.End()
	child.End()
	root.End()

	td := tr.Trace(root.TraceIDHex())
	if td == nil {
		t.Fatal("trace not found after finalize")
	}
	if td.Reason != "sample" {
		t.Errorf("reason = %q, want sample", td.Reason)
	}
	if td.Spans != 3 || td.Dropped != 0 {
		t.Errorf("spans/dropped = %d/%d, want 3/0", td.Spans, td.Dropped)
	}
	if td.RootName != "GET /thing" || td.Root == nil {
		t.Fatalf("root = %q %v", td.RootName, td.Root)
	}
	if len(td.Root.Children) != 1 || td.Root.Children[0].Name != "engine.work" {
		t.Fatalf("root children = %+v", td.Root.Children)
	}
	eng := td.Root.Children[0]
	if len(eng.Children) != 1 || eng.Children[0].Name != "wal.commit" {
		t.Fatalf("engine children = %+v", eng.Children)
	}
	attrs := eng.Children[0].Attrs
	if attrs["wal.op"] != "add_problem" || attrs["wal.batch"] != "3" {
		t.Errorf("attrs = %v", attrs)
	}
}

func TestTailRetentionReasons(t *testing.T) {
	// SampleEvery is huge so boring traces are only kept by an explicit rule.
	tr := trace.New(trace.Options{
		Slow: 5 * time.Millisecond, SampleEvery: 1 << 30, Recent: 16, Retain: 16,
	})

	// Fast, clean trace: lands in the recent ring, not retained.
	_, boring := tr.StartRoot(context.Background(), "boring")
	boringID := boring.TraceIDHex()
	boring.End()
	if td := findTrace(tr.Retained(), boringID); td != nil {
		t.Errorf("boring trace retained with reason %q", td.Reason)
	}
	if findTrace(tr.Recent(), boringID) == nil {
		t.Error("boring trace missing from the recent ring")
	}

	// Slow root: retained as "slow". EndAt pins the duration explicitly so
	// the test never sleeps.
	_, slow := tr.StartRoot(context.Background(), "slow")
	slowID := slow.TraceIDHex()
	slow.EndAt(time.Now().Add(10 * time.Millisecond))
	if td := findTrace(tr.Retained(), slowID); td == nil || td.Reason != "slow" {
		t.Errorf("slow trace = %+v, want reason slow", td)
	}

	// Errored child: retained as "error" even when the root is also slow
	// (error outranks slow).
	ctx, errRoot := tr.StartRoot(context.Background(), "err")
	errID := errRoot.TraceIDHex()
	_, child := trace.StartSpan(ctx, "engine.fail")
	child.SetError()
	child.End()
	errRoot.EndAt(time.Now().Add(10 * time.Millisecond))
	if td := findTrace(tr.Retained(), errID); td == nil || td.Reason != "error" {
		t.Errorf("errored trace = %+v, want reason error", td)
	}

	// Gap-marked trace: retained as "gap".
	_, gapRoot := tr.StartRoot(context.Background(), "gap")
	gapID := gapRoot.TraceIDHex()
	gapRoot.SetGap()
	gapRoot.End()
	if td := findTrace(tr.Retained(), gapID); td == nil || td.Reason != "gap" {
		t.Errorf("gap trace = %+v, want reason gap", td)
	}

	// SampleEvery=1 keeps every boring trace as "sample".
	sampled := trace.New(trace.Options{SampleEvery: 1, Recent: 4, Retain: 4})
	_, sp := sampled.StartRoot(context.Background(), "sampled")
	spID := sp.TraceIDHex()
	sp.End()
	if td := findTrace(sampled.Retained(), spID); td == nil || td.Reason != "sample" {
		t.Errorf("sampled trace = %+v, want reason sample", td)
	}
}

func TestRingsAreBounded(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1, Recent: 4, Retain: 4})
	for i := 0; i < 10; i++ {
		_, sp := tr.StartRoot(context.Background(), "r")
		sp.End()
	}
	if n := len(tr.Recent()); n != 4 {
		t.Errorf("recent ring = %d traces, want 4", n)
	}
	if n := len(tr.Retained()); n != 4 {
		t.Errorf("retained ring = %d traces, want 4", n)
	}
}

func TestSpanOverflowIsCountedNotBlocking(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1, Recent: 4, Retain: 4})
	_, root := tr.StartRoot(context.Background(), "wide")
	id := root.TraceIDHex()
	const extra = 20
	for i := 0; i < trace.MaxSpans-1+extra; i++ {
		c := root.Child("c")
		c.SetInt("i", int64(i))
		c.End()
	}
	root.End()
	td := tr.Trace(id)
	if td == nil {
		t.Fatal("trace not found")
	}
	if td.Spans != trace.MaxSpans {
		t.Errorf("spans = %d, want the %d cap", td.Spans, trace.MaxSpans)
	}
	if td.Dropped != extra {
		t.Errorf("dropped = %d, want %d", td.Dropped, extra)
	}
	// Overflowed children return the zero span, which records nowhere.
	if over := root.Child("late"); over.Valid() {
		t.Error("post-finalize child claims to be valid")
	}
}

func TestStartSpanOnUntracedContextIsFree(t *testing.T) {
	ctx := context.Background()
	got, sp := trace.StartSpan(ctx, "x")
	if got != ctx {
		t.Error("untraced StartSpan derived a new context")
	}
	if sp.Valid() {
		t.Error("untraced StartSpan returned a valid span")
	}
	// All recorder methods are no-ops on the zero span.
	sp.SetStr("k", "v")
	sp.SetInt("k", 1)
	sp.SetError()
	sp.SetGap()
	sp.End()
	if sp.TraceIDHex() != "" {
		t.Errorf("zero span trace ID = %q", sp.TraceIDHex())
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *trace.Tracer
	ctx := context.Background()
	got, sp := tr.StartRoot(ctx, "r")
	if got != ctx || sp.Valid() {
		t.Error("nil tracer started a trace")
	}
	if tr.Retained() != nil || tr.Recent() != nil || tr.Trace("x") != nil {
		t.Error("nil tracer exported traces")
	}
	if l := tr.List(); l == nil || len(l.Retained) != 0 || len(l.Recent) != 0 {
		t.Errorf("nil tracer list = %+v", l)
	}
}

func TestDetachKeepsTraceLinkDropsCancelation(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1, Recent: 4, Retain: 4})
	base := obs.WithRequestID(context.Background(), "req-42")
	ctx, root := tr.StartRoot(base, "r")
	cctx, cancel := context.WithCancel(ctx)
	cancel()

	d := trace.Detach(cctx)
	if d.Err() != nil {
		t.Errorf("detached ctx err = %v, want nil", d.Err())
	}
	if got := trace.FromContext(d).TraceIDHex(); got != root.TraceIDHex() {
		t.Errorf("detached span trace = %q, want %q", got, root.TraceIDHex())
	}
	if got := obs.RequestIDFrom(d); got != "req-42" {
		t.Errorf("detached request ID = %q", got)
	}
	root.End()

	// Detaching a bare context stays bare.
	if got := trace.Detach(context.Background()); trace.FromContext(got).Valid() {
		t.Error("detach of untraced ctx fabricated a span")
	}
}

// TestConcurrentSpanCollection hammers one trace's span array from many
// goroutines and finalizes under them; run with -race it is the data-race
// proof for the lock-free slot claim.
func TestConcurrentSpanCollection(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1, Recent: 8, Retain: 8})
	ctx, root := tr.StartRoot(context.Background(), "fan-out")
	id := root.TraceIDHex()

	const workers = 8
	const perWorker = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, sp := trace.StartSpan(ctx, "worker.op")
				sp.SetInt("worker", int64(w))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()

	td := tr.Trace(id)
	if td == nil {
		t.Fatal("trace not found")
	}
	started := 1 + workers*perWorker
	wantSpans, wantDropped := started, 0
	if started > trace.MaxSpans {
		wantSpans, wantDropped = trace.MaxSpans, started-trace.MaxSpans
	}
	if td.Spans != wantSpans || td.Dropped != wantDropped {
		t.Errorf("spans/dropped = %d/%d, want %d/%d",
			td.Spans, td.Dropped, wantSpans, wantDropped)
	}
}

// TestConcurrentTraces runs whole traces in parallel to race the sink and
// the buffer pool recycling against each other.
func TestConcurrentTraces(t *testing.T) {
	tr := trace.New(trace.Options{SampleEvery: 1, Recent: 16, Retain: 16})
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, root := tr.StartRoot(context.Background(), "req")
				cctx, c := trace.StartSpan(ctx, "engine")
				_, g := trace.StartSpan(cctx, "wal.commit")
				g.End()
				c.End()
				root.End()
			}
		}()
	}
	wg.Wait()

	recent := tr.Recent()
	if len(recent) != 16 {
		t.Fatalf("recent = %d traces, want full ring", len(recent))
	}
	for _, td := range recent {
		if td.Spans != 3 || td.Dropped != 0 {
			t.Errorf("trace %s spans/dropped = %d/%d, want 3/0",
				td.TraceID, td.Spans, td.Dropped)
		}
		names := map[string]int{}
		spanNames(td.Root, names)
		if names["req"] != 1 || names["engine"] != 1 || names["wal.commit"] != 1 {
			t.Errorf("trace %s names = %v", td.TraceID, names)
		}
	}
}
