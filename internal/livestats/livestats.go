// Package livestats is the streaming counterpart of internal/stats: an
// aggregator subscribed to the live event bus that maintains incremental
// per-exam item statistics while sittings are still in progress —
// instructors watch difficulty and discrimination converge during the exam
// instead of waiting for an offline pass over the response log.
//
// Everything is computed from running sums, never by re-reading responses:
//
//   - Running difficulty P = correct/attempts per item, updated on every
//     response.submitted (and adaptive.responded) event.
//   - Point-biserial discrimination per item over finished fixed-form
//     sittings, from the incremental sums (n, Σx, Σy, Σy², Σxy) of the
//     dichotomized item score x against the rest-of-test score y.
//   - A 10-bin percent-correct score histogram over finished sittings.
//   - KR-20, recomputed from the per-item right-counts and the score sums
//     each time a sitting finishes (matching internal/stats: population
//     variance, items dichotomized at full credit).
//
// Adaptive sittings contribute to attempts/correct (running difficulty) and
// the session counters; they are excluded from point-biserial, histogram
// and KR-20, which assume a common form.
//
// The aggregator is one more bus subscriber — if it ever falls behind, the
// bus drops its oldest events and the Gaps counter in the snapshot tells
// consumers the statistics may undercount.
package livestats

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mineassess/internal/events"
	"mineassess/internal/obs"
)

// HistogramBins is the percent-correct score histogram resolution.
const HistogramBins = 10

// ItemStats is one item's live statistics.
type ItemStats struct {
	ProblemID string `json:"problemId"`
	// Attempts / Correct count every submitted response (fixed + adaptive);
	// P is their running ratio.
	Attempts int     `json:"attempts"`
	Correct  int     `json:"correct"`
	P        float64 `json:"p"`
	// PointBiserial correlates the item with the rest score over finished
	// fixed-form sittings; nil while undefined (no variance or < 2
	// sittings).
	PointBiserial *float64 `json:"pointBiserial,omitempty"`
}

// ExamLiveStats is one exam's live snapshot.
type ExamLiveStats struct {
	ExamID string `json:"examId"`
	// Seq is the exam-stream sequence number of the last event folded in —
	// consumers compare it against event Seq to know how fresh the
	// statistics are.
	Seq uint64 `json:"seq"`
	// Gaps counts bus gap markers observed: statistics may undercount.
	Gaps             int         `json:"gaps,omitempty"`
	ActiveSessions   int         `json:"activeSessions"`
	FinishedSessions int         `json:"finishedSessions"`
	Responses        int         `json:"responses"`
	Items            []ItemStats `json:"items"`
	// ScoreHistogram buckets finished sittings by percent correct
	// ([0-10) ... [90-100]).
	ScoreHistogram []int `json:"scoreHistogram"`
	// MeanScore/ScoreSD summarize number-correct scores over finished
	// fixed-form sittings.
	MeanScore float64 `json:"meanScore"`
	ScoreSD   float64 `json:"scoreSD"`
	// KR20 is nil while undefined (< 2 items, < 2 sittings, or zero score
	// variance).
	KR20 *float64 `json:"kr20,omitempty"`
}

// itemAgg carries one item's running sums. x is the dichotomized item score
// of a finished sitting, y its rest score (total minus x); Σx² == Σx since
// x ∈ {0,1}.
type itemAgg struct {
	attempts, correct int
	n                 int
	sumX, sumY        float64
	sumYY, sumXY      float64
}

// sitting tracks an in-flight fixed-form session's correct set until it
// finishes and folds into the aggregate sums.
type sitting struct {
	correct map[string]bool
}

type examAgg struct {
	seq      uint64
	gaps     int
	active   int
	finished int
	resps    int

	order []string // sorted item universe
	items map[string]*itemAgg
	open  map[string]*sitting

	n           int // finished fixed-form sittings folded
	sumS, sumSS float64
	hist        [HistogramBins]int
}

// Aggregator consumes bus events and serves live snapshots. Build with
// New; Close detaches it from the bus.
type Aggregator struct {
	sub  *events.Subscription
	done chan struct{}

	mu    sync.RWMutex
	exams map[string]*examAgg

	// Metrics cells, nil unless built with NewWith (handles are nil-safe;
	// the fold timing also guards on nil to spare the clock reads).
	mFolded  *obs.Counter   // events folded
	mFoldDur *obs.Histogram // per-event fold latency
	lastSeq  atomic.Uint64  // GlobalSeq of the last folded event (lag probe)
}

// AggregatorBuffer is the aggregator's bus-queue depth: generous, because a
// gap here silently skews statistics rather than just a dashboard.
const AggregatorBuffer = 8192

// New subscribes an aggregator to the bus and starts folding events. A nil
// bus yields a nil aggregator (Snapshot misses, Close no-ops), so wiring
// can be unconditional.
func New(bus *events.Bus) *Aggregator {
	return NewWith(bus, nil)
}

// NewWith is New plus metrics: with a non-nil registry the aggregator
// exports its fold count, per-event fold latency, and its lag behind the
// bus head (how many published events it has not yet folded).
func NewWith(bus *events.Bus, reg *obs.Registry) *Aggregator {
	sub := bus.Subscribe(events.SubscribeOptions{Buffer: AggregatorBuffer})
	if sub == nil {
		return nil
	}
	a := &Aggregator{
		sub:   sub,
		done:  make(chan struct{}),
		exams: make(map[string]*examAgg),
	}
	if reg != nil {
		a.mFolded = reg.Counter("livestats_events_total", "Events folded into live statistics.")
		a.mFoldDur = reg.Histogram("livestats_fold_seconds", "Per-event fold latency.", obs.Latency)
		reg.GaugeFunc("livestats_lag_events",
			"Published events not yet folded (bus head minus last folded GlobalSeq).",
			func() float64 {
				head, last := bus.Head(), a.lastSeq.Load()
				if head <= last {
					return 0
				}
				return float64(head - last)
			})
		reg.GaugeFunc("livestats_exams", "Exam aggregates held in memory.",
			func() float64 {
				a.mu.RLock()
				defer a.mu.RUnlock()
				return float64(len(a.exams))
			})
	}
	go a.run()
	return a
}

func (a *Aggregator) run() {
	defer close(a.done)
	var batch []events.Event
	for range a.sub.Ready() {
		batch = a.sub.Take(batch[:0])
		for _, e := range batch {
			var start time.Time
			if a.mFoldDur != nil {
				start = time.Now()
			}
			a.fold(e)
			a.mFoldDur.Observe(time.Since(start))
			a.mFolded.Inc()
			if e.GlobalSeq != 0 {
				a.lastSeq.Store(e.GlobalSeq)
			}
		}
	}
}

// Close detaches from the bus and waits for the fold loop to drain.
func (a *Aggregator) Close() {
	if a == nil {
		return
	}
	a.sub.Close()
	<-a.done
}

func (a *Aggregator) exam(id string) *examAgg {
	ex := a.exams[id]
	if ex == nil {
		ex = &examAgg{
			items: make(map[string]*itemAgg),
			open:  make(map[string]*sitting),
		}
		a.exams[id] = ex
	}
	return ex
}

func (ex *examAgg) item(id string) *itemAgg {
	it := ex.items[id]
	if it == nil {
		it = &itemAgg{}
		ex.items[id] = it
		i, _ := slices.BinarySearch(ex.order, id)
		ex.order = slices.Insert(ex.order, i, id)
	}
	return it
}

func (a *Aggregator) fold(e events.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e.Type == events.TypeGap {
		// A firehose gap may span exams; attribute it to the marker's exam
		// (empty on the all-exam subscription → count on every known exam,
		// since any of them may have lost events).
		if e.ExamID != "" {
			a.exam(e.ExamID).gaps++
		} else {
			for _, ex := range a.exams {
				ex.gaps++
			}
		}
		return
	}
	ex := a.exam(e.ExamID)
	if e.Seq > ex.seq {
		ex.seq = e.Seq
	}
	switch e.Type {
	case events.SessionStarted:
		ex.active++
		for _, pid := range e.Problems {
			ex.item(pid)
		}
		ex.open[e.SessionID] = &sitting{correct: make(map[string]bool)}
	case events.ResponseSubmitted:
		ex.resps++
		it := ex.item(e.ProblemID)
		it.attempts++
		if e.Correct {
			it.correct++
		}
		if st := ex.open[e.SessionID]; st != nil && e.Correct {
			st.correct[e.ProblemID] = true
		}
	case events.SessionFinished, events.SessionExpired:
		// A finish for a session the aggregator never saw start (e.g. a
		// journal-restored sitting predating this process) must not drive
		// the active gauge negative.
		if ex.active > 0 {
			ex.active--
		}
		ex.finished++
		ex.foldSitting(e.SessionID)
	case events.AdaptiveStarted:
		ex.active++
	case events.AdaptiveResponded:
		ex.resps++
		it := ex.item(e.ProblemID)
		it.attempts++
		if e.Correct {
			it.correct++
		}
	case events.AdaptiveFinished:
		if ex.active > 0 {
			ex.active--
		}
		ex.finished++
	}
}

// foldSitting moves one finished fixed-form sitting from the open map into
// the aggregate sums: per-item (x, y) products for point-biserial, score
// sums for variance/KR-20, and the histogram bucket.
func (ex *examAgg) foldSitting(sessionID string) {
	st := ex.open[sessionID]
	if st == nil {
		return // adaptive or pre-subscription session
	}
	delete(ex.open, sessionID)
	s := float64(len(st.correct))
	for _, pid := range ex.order {
		it := ex.items[pid]
		x := 0.0
		if st.correct[pid] {
			x = 1
		}
		y := s - x
		it.n++
		it.sumX += x
		it.sumY += y
		it.sumYY += y * y
		it.sumXY += x * y
	}
	ex.n++
	ex.sumS += s
	ex.sumSS += s * s
	if k := len(ex.order); k > 0 {
		bin := int(s) * HistogramBins / k
		if bin >= HistogramBins {
			bin = HistogramBins - 1
		}
		ex.hist[bin]++
	}
}

// Seq reports the exam's last folded sequence number without building a
// snapshot — the cheap staleness probe for pollers (false when no events
// for the exam have been seen).
func (a *Aggregator) Seq(examID string) (uint64, bool) {
	if a == nil {
		return 0, false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	ex := a.exams[examID]
	if ex == nil {
		return 0, false
	}
	return ex.seq, true
}

// Snapshot returns the exam's current statistics, or false when no events
// for it have been seen. Safe concurrently with folding.
func (a *Aggregator) Snapshot(examID string) (*ExamLiveStats, bool) {
	if a == nil {
		return nil, false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	ex := a.exams[examID]
	if ex == nil {
		return nil, false
	}
	out := &ExamLiveStats{
		ExamID:           examID,
		Seq:              ex.seq,
		Gaps:             ex.gaps,
		ActiveSessions:   ex.active,
		FinishedSessions: ex.finished,
		Responses:        ex.resps,
		ScoreHistogram:   append([]int(nil), ex.hist[:]...),
	}
	sumPQ := 0.0
	for _, pid := range ex.order {
		it := ex.items[pid]
		st := ItemStats{ProblemID: pid, Attempts: it.attempts, Correct: it.correct}
		if it.attempts > 0 {
			st.P = float64(it.correct) / float64(it.attempts)
		}
		if r, ok := it.pointBiserial(); ok {
			st.PointBiserial = &r
		}
		if ex.n > 0 {
			p := it.sumX / float64(ex.n)
			sumPQ += p * (1 - p)
		}
		out.Items = append(out.Items, st)
	}
	if ex.n > 0 {
		mean := ex.sumS / float64(ex.n)
		variance := ex.sumSS/float64(ex.n) - mean*mean
		if variance < 0 {
			variance = 0 // float cancellation on identical scores
		}
		out.MeanScore = mean
		out.ScoreSD = math.Sqrt(variance)
		k := len(ex.order)
		if k >= 2 && ex.n >= 2 && variance > 0 {
			kr := float64(k) / float64(k-1) * (1 - sumPQ/variance)
			out.KR20 = &kr
		}
	}
	return out, true
}

// PurgeIdle drops every exam aggregate with no active sessions and no open
// (unfinished) sittings — the livestats counterpart of the adaptive engine's
// PurgeFinished retention pass, keeping a long-lived server's statistics
// memory from scaling with lifetime exam count. Purged exams simply start
// from empty aggregates if events for them arrive again. Returns the number
// of exam aggregates dropped; a nil aggregator purges nothing.
func (a *Aggregator) PurgeIdle() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	purged := 0
	for id, ex := range a.exams {
		if ex.active == 0 && len(ex.open) == 0 {
			delete(a.exams, id)
			purged++
		}
	}
	return purged
}

// pointBiserial computes Pearson r of x against the rest score from the
// running sums; ok is false while either side has no variance.
func (it *itemAgg) pointBiserial() (float64, bool) {
	n := float64(it.n)
	if it.n < 2 {
		return 0, false
	}
	// Σx² == Σx for dichotomous x.
	varX := n*it.sumX - it.sumX*it.sumX
	varY := n*it.sumYY - it.sumY*it.sumY
	if varX <= 0 || varY <= 0 {
		return 0, false
	}
	return (n*it.sumXY - it.sumX*it.sumY) / math.Sqrt(varX*varY), true
}
