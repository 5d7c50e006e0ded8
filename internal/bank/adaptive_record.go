package bank

import (
	"errors"
	"fmt"
	"strings"
)

// ErrAdaptiveSessionNotFound is returned when an adaptive session ID is not
// in the store.
var ErrAdaptiveSessionNotFound = errors.New("bank: adaptive session not found")

// Adaptive session lifecycle states as persisted. The catdelivery engine
// owns the transitions; the bank only stores and replays them.
const (
	AdaptiveStateActive   = "active"
	AdaptiveStateFinished = "finished"
)

// AdaptiveSessionRecord is the persisted state of one live adaptive (CAT)
// session. The catdelivery engine writes a record after every mutation
// (start, response, finish), so a journaled bank replays adaptive sessions
// across restarts exactly like problems and exams. Everything needed to
// rehydrate the session is here: the response stream re-derives theta/SE,
// and item selection is re-seeded from Seed plus the administration count,
// so a restarted session continues deterministically.
type AdaptiveSessionRecord struct {
	ID        string `json:"id"`
	ExamID    string `json:"examId"`
	StudentID string `json:"studentId"`
	Seed      int64  `json:"seed"`

	// Stopping-rule and selection configuration, fixed at start.
	MaxItems     int     `json:"maxItems"`
	MinItems     int     `json:"minItems,omitempty"`
	TargetSE     float64 `json:"targetSE,omitempty"`
	Selector     string  `json:"selector,omitempty"`
	RandomesqueK int     `json:"randomesqueK,omitempty"`
	MaxExposure  float64 `json:"maxExposure,omitempty"`

	// Progress. PendingID is the item handed out and not yet answered;
	// Administered/Correct are the answered items in administration order.
	PendingID    string   `json:"pendingId,omitempty"`
	Administered []string `json:"administered,omitempty"`
	Correct      []bool   `json:"correct,omitempty"`
	Theta        float64  `json:"theta"`
	SE           float64  `json:"se"`
	State        string   `json:"state"`
	StopReason   string   `json:"stopReason,omitempty"`
}

// validate checks the record is storable.
func (r *AdaptiveSessionRecord) validate() error {
	if strings.TrimSpace(r.ID) == "" {
		return errors.New("bank: adaptive session ID must not be empty")
	}
	if r.State != AdaptiveStateActive && r.State != AdaptiveStateFinished {
		return fmt.Errorf("bank: adaptive session %s has unknown state %q", r.ID, r.State)
	}
	if len(r.Administered) != len(r.Correct) {
		return fmt.Errorf("bank: adaptive session %s has %d administered items but %d results",
			r.ID, len(r.Administered), len(r.Correct))
	}
	return nil
}

// cloneAdaptive deep-copies a record so the store never shares slices with
// the caller that wrote it.
func cloneAdaptive(r *AdaptiveSessionRecord) *AdaptiveSessionRecord {
	cp := *r
	cp.Administered = append([]string(nil), r.Administered...)
	cp.Correct = append([]bool(nil), r.Correct...)
	return &cp
}
