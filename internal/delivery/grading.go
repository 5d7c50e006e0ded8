package delivery

import (
	"context"
	"errors"
	"fmt"
)

// Manual grading: essay answers cannot be auto-graded (item.Problem.Grade
// reports ok=false), so instructors score them after the sitting. Grades
// may be assigned on running or closed sessions; results collected after
// grading reflect the assigned credit. A grade on an ended sitting builds
// its row anew, so a reply or export holding the earlier row still reads
// what it read.

// Errors for the grading workflow.
var (
	ErrNotAnswered   = errors.New("delivery: problem was not answered")
	ErrAutoGraded    = errors.New("delivery: problem was auto-graded")
	ErrInvalidCredit = errors.New("delivery: credit outside [0,1]")
)

// PendingGrade describes one response awaiting manual grading.
type PendingGrade struct {
	SessionID string `json:"sessionId"`
	StudentID string `json:"studentId"`
	ProblemID string `json:"problemId"`
	Response  string `json:"response"`
}

// PendingGrades lists every answered-but-ungradable response for the exam,
// ordered by session then problem for stable instructor worklists. Sessions
// are locked one at a time; the worklist never freezes active learners.
func (e *Engine) PendingGrades(examID string) []PendingGrade {
	var out []PendingGrade
	for _, s := range e.examSessions(examID) {
		s.mu.Lock()
		for _, pid := range s.Order {
			a, ok := s.answers[pid]
			if !ok || a.gradable {
				continue
			}
			out = append(out, PendingGrade{
				SessionID: s.ID,
				StudentID: s.StudentID,
				ProblemID: pid,
				Response:  a.response,
			})
		}
		s.mu.Unlock()
	}
	return out
}

// AssignGrade records an instructor's credit for a manually graded
// response. Only answered, not-auto-graded responses accept a grade;
// re-grading is allowed (the last grade wins).
func (e *Engine) AssignGrade(sessionID, problemID string, credit float64) error {
	if credit < 0 || credit > 1 {
		return fmt.Errorf("%w: %v", ErrInvalidCredit, credit)
	}
	s, err := e.lock(sessionID)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	a, ok := s.answers[problemID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotAnswered, problemID)
	}
	if a.gradable {
		return fmt.Errorf("%w: %s", ErrAutoGraded, problemID)
	}
	a.credit = credit
	s.answers[problemID] = a
	if s.row != nil {
		s.row = s.result() // replaced, never edited: the old row is shared
	}
	return nil
}

// SessionSummaries lists the status of every session for an exam, ordered
// by session ID — the administrator's monitor view of who is taking the
// exam right now. Summaries are taken per session without a global lock.
func (e *Engine) SessionSummaries(examID string) []Status {
	now := e.now()
	var out []Status
	for _, s := range e.examSessions(examID) {
		s.mu.Lock()
		_ = e.checkTime(context.Background(), s, now)
		st := s.snapshotStatus(now)
		s.mu.Unlock()
		st.StateName = st.State.String()
		out = append(out, st)
	}
	return out
}
