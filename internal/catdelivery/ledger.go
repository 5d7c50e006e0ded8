package catdelivery

import (
	"fmt"
	"maps"
	"sync"

	"mineassess/internal/adaptive"
	"mineassess/internal/bank"
)

// examLedger is what one exam's sittings teach the engine: the sittings
// started and the hand-outs per item, whose ratio the exposure caps read,
// and every finished sitting's record, which Recalibrate refits from. A
// sitting holds its exam's ledger, so exposure control takes only that
// exam's lock. Purge leaves a ledger alone: the evidence outlives the
// sittings for the life of the process.
//
// finished holds the very records the finished sittings hold. Each sitting
// enters once: a live one on its transition to finished, checked under its
// session lock, and a restored one when NewEngine visits its record. A
// finished record is never modified and entries are only appended, so a
// copy of the slice taken under mu can be read after mu is released.
type examLedger struct {
	mu        sync.Mutex
	starts    int
	handedOut map[string]int
	finished  []*bank.AdaptiveSessionRecord
}

// start counts one sitting started on the exam.
func (l *examLedger) start() {
	l.mu.Lock()
	l.starts++
	l.mu.Unlock()
}

// handOut counts one hand-out of an item.
func (l *examLedger) handOut(id string) {
	l.mu.Lock()
	l.handedOut[id]++
	l.mu.Unlock()
}

// finish adds a finished sitting's record.
func (l *examLedger) finish(rec *bank.AdaptiveSessionRecord) {
	l.mu.Lock()
	l.finished = append(l.finished, rec)
	l.mu.Unlock()
}

// underCap returns the candidate pool rows whose hand-out rate is below
// limit or, when every one has reached it, the least handed-out row (ties
// broken by ID), so the sitting always progresses. The caller's own start
// is counted, so starts is at least 1.
func (l *examLedger) underCap(items []adaptive.PoolItem, rows []int, limit float64) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	open := make([]int, 0, len(rows))
	for _, row := range rows {
		if float64(l.handedOut[items[row].ID])/float64(l.starts) < limit {
			open = append(open, row)
		}
	}
	if len(open) > 0 {
		return open
	}
	best := rows[0]
	for _, row := range rows[1:] {
		n, m := l.handedOut[items[row].ID], l.handedOut[items[best].ID]
		if n < m || (n == m && items[row].ID < items[best].ID) {
			best = row
		}
	}
	return append(open, best)
}

// observations regroups the exam's finished records by item for
// calibration: each answer at its sitting's final ability estimate, in the
// order the sittings finished.
func (l *examLedger) observations() map[string][]adaptive.CalibrationObservation {
	l.mu.Lock()
	finished := l.finished
	l.mu.Unlock()
	obs := make(map[string][]adaptive.CalibrationObservation)
	for _, rec := range finished {
		for i, pid := range rec.Administered {
			obs[pid] = append(obs[pid], adaptive.CalibrationObservation{
				Theta: rec.Theta, Correct: rec.Correct[i],
			})
		}
	}
	return obs
}

// Recalibrate refits the exam's stored pool difficulties from its finished
// adaptive sittings and persists the updated parameters — the feedback
// loop's write-back half. minObs guards against recalibrating from noise
// (0 means adaptive.DefaultMinCalibrationObs). Items with too few responses
// are reported in the result's Skipped map and left untouched.
//
// Concurrent Recalibrate calls are serialized on the engine, so two passes
// cannot overwrite each other. An authoring edit to the same exam record
// racing the read-modify-write window here can still be lost — the same
// advisory window bank.Sharded documents for cross-shard validation;
// recalibration is an administrative pass, run it when the exam is not
// being re-authored.
func (e *Engine) Recalibrate(examID string, minObs int) (*adaptive.PoolCalibration, error) {
	e.recalMu.Lock()
	defer e.recalMu.Unlock()
	rec, err := e.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	if len(rec.ItemParams) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotCalibrated, examID)
	}
	e.ledgerMu.Lock()
	l := e.ledgers[examID]
	e.ledgerMu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoResponses, examID)
	}
	obs := l.observations()
	if len(obs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoResponses, examID)
	}
	cal := adaptive.CalibratePool(rec.ItemParams, obs, minObs)
	if len(cal.Updated) > 0 {
		// The stored record is shared with every reader: refit a copy with
		// its own parameter map.
		next := *rec
		next.ItemParams = maps.Clone(rec.ItemParams)
		for pid, params := range cal.Updated {
			next.ItemParams[pid] = params
		}
		// The write moves the bank's generation, so the next Start builds
		// the exam's pool and information grid from the refit parameters;
		// in-flight sessions keep their start-time pool.
		if err := e.store.UpdateExam(&next); err != nil {
			return nil, err
		}
	}
	return cal, nil
}
