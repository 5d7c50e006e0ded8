package catdelivery

import (
	"fmt"
	"sync"

	"mineassess/internal/adaptive"
	"mineassess/internal/bank"
)

// LoggedResponse is one scored administration inside a log entry.
type LoggedResponse struct {
	ProblemID string `json:"problemId"`
	Correct   bool   `json:"correct"`
}

// LogEntry is one finished adaptive session's contribution to calibration:
// the final ability estimate plus the dichotomized response stream.
type LogEntry struct {
	SessionID string           `json:"sessionId"`
	ExamID    string           `json:"examId"`
	StudentID string           `json:"studentId"`
	Theta     float64          `json:"theta"`
	SE        float64          `json:"se"`
	Items     []LoggedResponse `json:"items"`
}

// ResponseLog is the calibration sink finished adaptive sessions drain
// into, the bridge between live delivery and the feedback loop:
// Engine.Recalibrate folds the entries back into stored pool parameters.
// Each sitting drains once: a live one when its finished record persists
// (the active-state check runs under the session's lock), a restored one
// when NewEngine visits its record. Entries are never modified once added.
type ResponseLog struct {
	mu      sync.Mutex
	entries []LogEntry
}

// entryOf projects a finished session record into a log entry.
func entryOf(rec *bank.AdaptiveSessionRecord) LogEntry {
	entry := LogEntry{
		SessionID: rec.ID,
		ExamID:    rec.ExamID,
		StudentID: rec.StudentID,
		Theta:     rec.Theta,
		SE:        rec.SE,
	}
	for i, pid := range rec.Administered {
		entry.Items = append(entry.Items, LoggedResponse{ProblemID: pid, Correct: rec.Correct[i]})
	}
	return entry
}

// Add appends one finished session.
func (l *ResponseLog) Add(entry LogEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, entry)
}

// Len returns the number of logged sessions.
func (l *ResponseLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// ByExam returns the entries logged for one exam, in drain order. Their
// Items are shared with the log; callers must not modify them.
func (l *ResponseLog) ByExam(examID string) []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []LogEntry
	for _, entry := range l.entries {
		if entry.ExamID == examID {
			out = append(out, entry)
		}
	}
	return out
}

// observations regroups an exam's entries by item for calibration.
func (l *ResponseLog) observations(examID string) map[string][]adaptive.CalibrationObservation {
	obs := make(map[string][]adaptive.CalibrationObservation)
	for _, entry := range l.ByExam(examID) {
		for _, r := range entry.Items {
			obs[r.ProblemID] = append(obs[r.ProblemID], adaptive.CalibrationObservation{
				Theta: entry.Theta, Correct: r.Correct,
			})
		}
	}
	return obs
}

// Recalibrate refits the exam's stored pool difficulties from the logged
// adaptive responses and persists the updated parameters — the feedback
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
	obs := e.log.observations(examID)
	if len(obs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoResponses, examID)
	}
	cal := adaptive.CalibratePool(rec.ItemParams, obs, minObs)
	if len(cal.Updated) > 0 {
		for pid, params := range cal.Updated {
			rec.ItemParams[pid] = params
		}
		// The write moves the bank's generation, so the next Start builds
		// the exam's pool and information grid from the refit parameters;
		// in-flight sessions keep their start-time pool.
		if err := e.store.UpdateExam(rec); err != nil {
			return nil, err
		}
	}
	return cal, nil
}
