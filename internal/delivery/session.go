// Package delivery is the on-line exam runtime: learners take exams through
// sessions with time limits (§3.4 II), pause/resume semantics (§3.2 VI B),
// automatic grading, and a monitor subsystem that captures client pictures
// during the exam (§5). Results stream into the analysis package's response
// matrices. The HTTP front end (versioned /v1 API, SCORM RTE bridge,
// authoring CRUD) lives in internal/httpapi.
//
// Concurrency model: the engine keeps sessions in a sharded registry
// (internal/shardmap); each Session carries its own mutex and its own
// monitor ring. A per-learner operation — Answer, Status, Snapshots, Pause,
// Resume, Finish, AssignGrade — takes one shard read-lock for the lookup
// and then only that session's lock, so unrelated learners never contend
// and a slow grade computation stalls nobody else.
// Cross-session views (CollectResults, SessionSummaries, PendingGrades)
// iterate shard by shard without any stop-the-world lock.
package delivery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/events"
	"mineassess/internal/item"
	"mineassess/internal/scorm"
	"mineassess/internal/shardmap"
	"mineassess/internal/trace"
)

// DefaultSessionShards is the engine's session-registry shard count when not
// overridden. One shard reproduces the old global-map behaviour (useful as a
// benchmark baseline); production engines want enough shards that unrelated
// learners rarely hash together.
const DefaultSessionShards = 32

// SessionState is a session's lifecycle state.
type SessionState int

// Session states.
const (
	StateRunning SessionState = iota + 1
	StatePaused
	StateFinished
	StateExpired
)

// String returns the state name.
func (s SessionState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateFinished:
		return "finished"
	case StateExpired:
		return "expired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors callers may match.
var (
	ErrSessionNotFound  = errors.New("delivery: session not found")
	ErrSessionNotActive = errors.New("delivery: session is not running")
	ErrNotPaused        = errors.New("delivery: session is not paused")
	ErrNotResumable     = errors.New("delivery: exam is not resumable")
	ErrTimeExpired      = errors.New("delivery: test time expired")
	ErrUnknownProblem   = errors.New("delivery: problem not in this exam")
	ErrAlreadyAnswered  = errors.New("delivery: problem already answered")
)

// answer is one recorded response.
type answer struct {
	response string
	credit   float64
	gradable bool
	spent    time.Duration
}

// Session is one learner's sitting of one exam. ID, ExamID, StudentID,
// Order, problems and perms are fixed at Start and safe to read without
// locking; all other state — including the SCORM API, its data model and
// the monitor ring — is guarded by mu.
// Engine operations and RTEExec take the lock; the raw RTE accessor is the
// single-threaded escape hatch (see its comment).
type Session struct {
	ID        string
	ExamID    string
	StudentID string
	// Order is the presentation order of problem IDs for this sitting.
	Order []string

	mu          sync.Mutex
	state       SessionState
	startedAt   time.Time
	lastEvent   time.Time // previous answer/pause boundary, for per-item time
	pausedAt    time.Time
	activeSpent time.Duration // running time excluding pauses
	limit       time.Duration // 0 = unlimited
	answers     map[string]answer
	// problems are the exam's problems as the bank stores them, shared with
	// every other reader and never modified.
	problems map[string]*item.Problem
	// perms holds the option permutation of each problem a RandomOrder
	// sitting presents with its options in its own order (see
	// authoring.ShuffleOptions); nil on other sittings.
	perms map[string][]int
	// row is the sitting's result, built when it ends (see end) and nil
	// until then. It is shared with every caller that received it, so it
	// is replaced, never modified.
	row     *analysis.StudentResult
	api     *scorm.API
	data    *scorm.DataModel
	monitor Monitor
}

// PresentedOptions returns, for each problem whose options this sitting
// presents in its own order, those options as presented: keyed A, B, C,
// ... in presentation order. Answers use these keys. It is nil when the
// sitting presents every problem's options as authored.
func (s *Session) PresentedOptions() map[string][]item.Option {
	if len(s.perms) == 0 {
		return nil
	}
	out := make(map[string][]item.Option, len(s.perms))
	for id, perm := range s.perms {
		out[id] = authoring.PresentOptions(s.problems[id], perm)
	}
	return out
}

// snapshotStatus summarizes the session. Callers hold s.mu.
func (s *Session) snapshotStatus(now time.Time) Status {
	st := Status{
		SessionID: s.ID,
		ExamID:    s.ExamID,
		StudentID: s.StudentID,
		State:     s.state,
		Answered:  len(s.answers),
		Total:     len(s.Order),
	}
	if s.limit > 0 && (s.state == StateRunning || s.state == StatePaused) {
		remaining := s.limit - s.elapsedActive(now)
		if remaining < 0 {
			remaining = 0
		}
		// Round up: a live session with any time left — even a fraction of
		// a second — reports at least 1, so RemainingSeconds == 0 uniquely
		// means the clock has run out (truncation used to report 0 on a
		// session that was still accepting answers). Paused sessions report
		// the remainder they would resume with; their clock is stopped.
		st.RemainingSeconds = int((remaining + time.Second - 1) / time.Second)
	}
	return st
}

func (s *Session) elapsedActive(now time.Time) time.Duration {
	if s.state == StatePaused {
		return s.activeSpent
	}
	return s.activeSpent + now.Sub(s.lastEvent)
}

// Status is the externally visible session summary.
type Status struct {
	SessionID        string       `json:"sessionId"`
	ExamID           string       `json:"examId"`
	StudentID        string       `json:"studentId"`
	State            SessionState `json:"-"`
	StateName        string       `json:"state"`
	Answered         int          `json:"answered"`
	Total            int          `json:"total"`
	RemainingSeconds int          `json:"remainingSeconds"`
}

// Engine manages sessions over a problem/exam bank. The clock is injectable
// for tests and simulations. It holds no global lock: per-session operations
// synchronize only on the session itself (see the package comment).
type Engine struct {
	store           bank.Storage
	sessions        *shardmap.Map[*Session]
	now             func() time.Time
	monitorCapacity int // each session's snapshot ring bound; 0 disables capture
	nextID          atomic.Int64
	// bus receives lifecycle events (nil disables emission — a nil
	// *events.Bus is a valid no-op publisher, so emit sites are
	// unconditional). Emission is fire-and-forget and never blocks, so it
	// adds only memory-op cost to the learner's request.
	bus *events.Bus
}

// SetEventBus attaches a live event bus; engine operations publish
// session.started / response.submitted / session.finished / session.expired
// events onto it. Call before serving traffic (the field is not
// synchronized against in-flight operations).
func (e *Engine) SetEventBus(b *events.Bus) { e.bus = b }

// NewEngine builds an engine over any bank.Storage with the default session
// shard count. now may be nil for wall-clock time; monitorCapacity bounds
// the per-session snapshot ring (0 disables monitoring).
func NewEngine(store bank.Storage, now func() time.Time, monitorCapacity int) *Engine {
	return NewShardedEngine(store, now, monitorCapacity, DefaultSessionShards)
}

// NewShardedEngine is NewEngine with an explicit session shard count.
// shards <= 0 means DefaultSessionShards; shards == 1 serializes all session
// lookups on one shard lock (per-session locks still apply) and exists
// mainly as a contention baseline for benchmarks.
func NewShardedEngine(store bank.Storage, now func() time.Time, monitorCapacity, shards int) *Engine {
	if now == nil {
		now = time.Now
	}
	if shards <= 0 {
		shards = DefaultSessionShards
	}
	return &Engine{
		store:           store,
		sessions:        shardmap.New[*Session](shards),
		now:             now,
		monitorCapacity: monitorCapacity,
	}
}

// SessionCount returns the number of sessions the engine has registered
// (any state).
func (e *Engine) SessionCount() int {
	return e.sessions.Len()
}

// session returns the registered session without locking it.
func (e *Engine) session(id string) (*Session, error) {
	s, ok := e.sessions.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	return s, nil
}

// examSessions returns the exam's registered sessions sorted by ID (see
// shardmap.Map.Values for the scan guarantee). It filters the registry's
// snapshot in place before sorting it, so the sort sees only this exam.
func (e *Engine) examSessions(examID string) []*Session {
	all := e.sessions.Values()
	out := all[:0]
	for _, s := range all {
		if s.ExamID == examID {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b *Session) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Start opens a session for the student on the exam, computing the
// presentation order with the given seed (used only for RandomOrder exams).
// All assembly work happens before the session is published, so Start holds
// no lock while reading the bank or permuting options. A traced ctx gains an
// engine.start child span whose subtree includes the session.started bus
// publish; ctx does not cancel the operation.
func (e *Engine) Start(ctx context.Context, examID, studentID string, seed int64) (_ *Session, err error) {
	ctx, sp := trace.StartSpan(ctx, "engine.start")
	sp.SetStr("exam.id", examID)
	defer sp.EndErr(&err)
	rec, err := e.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	// A RandomOrder sitting draws its order and its option permutations
	// from one source, seeded with the sitting's seed.
	var rng *rand.Rand
	if rec.Display == item.RandomOrder {
		rng = rand.New(rand.NewSource(seed))
	}
	order, err := authoring.PresentationOrder(rec, rng)
	if err != nil {
		return nil, err
	}
	problems, err := e.store.Problems(order)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*item.Problem, len(problems))
	var perms map[string][]int
	for i, p := range problems {
		byID[p.ID] = p
		// RandomOrder exams also permute each problem's options so
		// neighbouring learners see different letters; Answer maps the
		// presented key back to the authored one.
		if rng != nil && len(p.Options) > 1 {
			if perms == nil {
				perms = make(map[string][]int, len(problems))
			}
			perms[p.ID] = authoring.ShuffleOptions(p, seed+int64(i)*2654435761, rng)
		}
	}

	now := e.now()
	s := &Session{
		ID:        fmt.Sprintf("sess-%06d", e.nextID.Add(1)),
		ExamID:    examID,
		StudentID: studentID,
		Order:     order,
		state:     StateRunning,
		startedAt: now,
		lastEvent: now,
		limit:     time.Duration(rec.TestTimeSeconds) * time.Second,
		answers:   make(map[string]answer, len(order)),
		problems:  byID,
		perms:     perms,
	}
	s.data = scorm.NewDataModel(studentID, studentID)
	s.api = scorm.NewAPI(s.data, nil)
	if got := s.api.LMSInitialize(""); got != "true" {
		return nil, fmt.Errorf("delivery: RTE initialize failed (%s)", s.api.LMSGetLastError())
	}
	// Captured while the session is still private to this call.
	s.monitor.Capture(s.ID, e.monitorCapacity, now)
	e.sessions.Put(s.ID, s)
	// Publishes detach from the request context: the event outlives the
	// request (cancelation must not reach subscribers) but keeps the trace
	// span and request ID so the bus.publish span parents correctly.
	e.bus.Publish(trace.Detach(ctx), events.Event{
		Type: events.SessionStarted, ExamID: examID, SessionID: s.ID,
		StudentID: studentID, Problems: order, Total: len(order), At: now,
	})
	return s, nil
}

// lock looks up the session and returns it locked. The caller must Unlock.
func (e *Engine) lock(sessionID string) (*Session, error) {
	s, err := e.session(sessionID)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	return s, nil
}

// checkTime expires the session once its limit is reached. The boundary is
// inclusive (>=) so the status contract stays exact: a running session
// always has remaining time and reports RemainingSeconds >= 1, and 0
// appears only together with the expired state. ctx scopes the expiry
// event's publish (see Start). Callers hold s.mu.
func (e *Engine) checkTime(ctx context.Context, s *Session, now time.Time) error {
	if s.limit > 0 && s.state == StateRunning && s.elapsedActive(now) >= s.limit {
		s.activeSpent = s.limit
		s.state = StateExpired
		e.end(s)
		score, max := s.scoreLocked()
		e.bus.Publish(trace.Detach(ctx), events.Event{
			Type: events.SessionExpired, ExamID: s.ExamID, SessionID: s.ID,
			StudentID: s.StudentID, Answered: len(s.answers), Total: len(s.Order),
			Score: score, MaxScore: max, At: now,
		})
		return fmt.Errorf("%w: session %s", ErrTimeExpired, s.ID)
	}
	return nil
}

// Answer records the learner's response to a problem and grades it. Every
// answer triggers a monitor capture ("monitor function captures the client
// picture", §5). Only this learner's session is locked; grading a slow
// problem never delays other sessions. A traced ctx gains an engine.answer
// span.
func (e *Engine) Answer(ctx context.Context, sessionID, problemID, response string) (err error) {
	ctx, sp := trace.StartSpan(ctx, "engine.answer")
	sp.SetStr("problem.id", problemID)
	defer sp.EndErr(&err)
	s, err := e.lock(sessionID)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	now := e.now()
	if err := e.checkTime(ctx, s, now); err != nil {
		return err
	}
	if s.state != StateRunning {
		return fmt.Errorf("%w: %s is %s", ErrSessionNotActive, s.ID, s.state)
	}
	p, ok := s.problems[problemID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProblem, problemID)
	}
	if _, dup := s.answers[problemID]; dup {
		return fmt.Errorf("%w: %s", ErrAlreadyAnswered, problemID)
	}
	response, presented := authoring.UnshuffleResponse(p, s.perms[problemID], response)
	credit, gradable := p.Grade(response)
	if !presented {
		credit = 0
	}
	spent := now.Sub(s.lastEvent)
	s.activeSpent += spent
	s.lastEvent = now
	s.answers[problemID] = answer{
		response: response, credit: credit, gradable: gradable, spent: spent,
	}
	s.api.LMSSetValue("cmi.core.lesson_location", problemID)
	s.monitor.Capture(s.ID, e.monitorCapacity, now)
	e.bus.Publish(trace.Detach(ctx), events.Event{
		Type: events.ResponseSubmitted, ExamID: s.ExamID, SessionID: s.ID,
		StudentID: s.StudentID, ProblemID: problemID,
		Correct: gradable && credit >= 1-1e-9, Credit: credit,
		Answered: len(s.answers), Total: len(s.Order), At: now,
	})
	return nil
}

// Pause suspends a session. Allowed only when every problem in the exam is
// resumable (§3.2 VI B: paused to resume at a later time).
func (e *Engine) Pause(sessionID string) error {
	s, err := e.lock(sessionID)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	now := e.now()
	if err := e.checkTime(context.Background(), s, now); err != nil {
		return err
	}
	if s.state != StateRunning {
		return fmt.Errorf("%w: %s is %s", ErrSessionNotActive, s.ID, s.state)
	}
	for _, p := range s.problems {
		if !p.Resumable {
			return fmt.Errorf("%w: problem %s", ErrNotResumable, p.ID)
		}
	}
	s.activeSpent += now.Sub(s.lastEvent)
	s.pausedAt = now
	s.state = StatePaused
	s.api.LMSSetValue("cmi.core.exit", "suspend")
	return nil
}

// Resume reactivates a paused session; paused time does not count against
// the limit.
func (e *Engine) Resume(sessionID string) error {
	s, err := e.lock(sessionID)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	if s.state != StatePaused {
		return fmt.Errorf("%w: %s is %s", ErrNotPaused, s.ID, s.state)
	}
	s.lastEvent = e.now()
	s.state = StateRunning
	return nil
}

// Finish closes the session, grades it, and writes score and status into
// the CMI data model. It returns the sitting's result row, the one it
// built when the sitting ended: a re-finish returns the same row, and
// CollectResults shares it. Callers must not modify it. A traced ctx gains
// an engine.finish span.
func (e *Engine) Finish(ctx context.Context, sessionID string) (_ *analysis.StudentResult, err error) {
	ctx, sp := trace.StartSpan(ctx, "engine.finish")
	defer sp.EndErr(&err)
	s, err := e.lock(sessionID)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	now := e.now()
	if s.state == StateRunning {
		_ = e.checkTime(ctx, s, now) // expiry still produces a result
	}
	finished := false
	switch s.state {
	case StateRunning:
		s.activeSpent += now.Sub(s.lastEvent)
		s.state = StateFinished
		e.end(s)
		finished = true
	case StateExpired:
		// already closed by checkTime
	case StatePaused:
		s.state = StateFinished
		e.end(s)
		finished = true
	case StateFinished:
		// idempotent: re-emit the result
	}
	if finished {
		// Only the transition emits; an idempotent re-finish does not
		// double-count the sitting in downstream aggregations.
		score, max := s.scoreLocked()
		e.bus.Publish(trace.Detach(ctx), events.Event{
			Type: events.SessionFinished, ExamID: s.ExamID, SessionID: s.ID,
			StudentID: s.StudentID, Answered: len(s.answers), Total: len(s.Order),
			Score: score, MaxScore: max, At: now,
		})
	}
	return s.row, nil
}

// end closes a sitting that has just finished or expired: it writes
// score/status, finishes the RTE attempt and builds the result row the
// sitting keeps from now on. Callers hold s.mu.
func (e *Engine) end(s *Session) {
	score, max := s.scoreLocked()
	if s.api.Running() {
		if max > 0 {
			raw := score / max * 100
			s.api.LMSSetValue("cmi.core.score.raw", fmt.Sprintf("%.2f", raw))
			status := "failed"
			if raw >= 60 {
				status = "passed"
			}
			s.api.LMSSetValue("cmi.core.lesson_status", status)
		} else {
			s.api.LMSSetValue("cmi.core.lesson_status", "completed")
		}
		secs := int(s.activeSpent / time.Second)
		s.api.LMSSetValue("cmi.core.session_time", fmt.Sprintf("%04d:%02d:%02d",
			secs/3600, (secs%3600)/60, secs%60))
		s.api.LMSFinish("")
	}
	s.row = s.result()
}

// scoreLocked totals earned and maximum weighted credit over the scored
// problems. Callers hold s.mu.
func (s *Session) scoreLocked() (score, max float64) {
	for _, p := range s.problems {
		if !p.Style.Scored() {
			continue
		}
		max += p.Weight()
		if a, ok := s.answers[p.ID]; ok && a.gradable {
			score += a.credit * p.Weight()
		}
	}
	return score, max
}

// result converts the session into a new analysis row, built at its final
// size: one response per problem in presentation order (none, and a nil
// list, for an exam without problems). Callers hold s.mu.
func (s *Session) result() *analysis.StudentResult {
	res := &analysis.StudentResult{StudentID: s.StudentID}
	if len(s.Order) > 0 {
		res.Responses = make([]analysis.Response, len(s.Order))
	}
	for i, pid := range s.Order {
		p := s.problems[pid]
		r := &res.Responses[i]
		r.StudentID, r.ProblemID = s.StudentID, pid
		if a, ok := s.answers[pid]; ok {
			r.Answered = true
			r.Credit = a.credit
			r.TimeSpent = a.spent
			// Choice answers keep their option key; questionnaire answers
			// keep the collected response for frequency analysis. Answer
			// stored the authored key, so option tables aggregate correctly
			// across sittings that presented the options in other orders.
			if p.CorrectKey() != "" || p.Style == item.Questionnaire {
				r.Option = a.response
			}
		}
	}
	return res
}

// Status reports a session's current summary.
func (e *Engine) Status(sessionID string) (Status, error) {
	s, err := e.lock(sessionID)
	if err != nil {
		return Status{}, err
	}
	defer s.mu.Unlock()
	now := e.now()
	_ = e.checkTime(context.Background(), s, now)
	st := s.snapshotStatus(now)
	st.StateName = st.State.String()
	return st, nil
}

// Snapshots returns a copy of the session's retained monitor snapshots in
// capture order (an empty slice, never nil, when capture is disabled).
func (e *Engine) Snapshots(sessionID string) ([]Snapshot, error) {
	s, err := e.lock(sessionID)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	return s.monitor.Snapshots(), nil
}

// RTEExec runs fn against the session's SCORM API while holding the session
// lock, serializing SCO-originated RTE traffic with the learner operations
// (Answer/Pause/Finish) that write the same CMI data model. This is the only
// safe way to touch a live session's API concurrently.
func (e *Engine) RTEExec(sessionID string, fn func(api *scorm.API)) error {
	s, err := e.session(sessionID)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.api)
	return nil
}

// CollectResults assembles the full response matrix of an exam from every
// finished or expired session, ready for analysis; a running sitting past
// its time limit is expired first. Sessions are visited shard by shard and
// locked one at a time — collection never blocks the whole engine, so
// learners on other exams keep answering while an instructor exports
// results. Each student is the row its sitting built when it ended, shared
// with Finish's callers and every other collection: callers must not
// modify the rows.
func (e *Engine) CollectResults(examID string) (*analysis.ExamResult, error) {
	rec, err := e.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	problems, err := e.store.Problems(rec.ProblemIDs)
	if err != nil {
		return nil, err
	}
	out := &analysis.ExamResult{
		ExamID:   examID,
		Problems: problems,
		TestTime: time.Duration(rec.TestTimeSeconds) * time.Second,
	}
	now := e.now()
	sessions := e.examSessions(examID)
	for _, s := range sessions {
		s.mu.Lock()
		// A sitting past its limit expires here, as SessionSummaries
		// expires it, so an abandoned sitting reaches the export
		// without anyone reading it first.
		_ = e.checkTime(context.Background(), s, now)
		row := s.row
		s.mu.Unlock()
		if row == nil { // still running or paused
			continue
		}
		if out.Students == nil { // nil, the export's null, until a sitting has ended
			out.Students = make([]analysis.StudentResult, 0, len(sessions))
		}
		out.Students = append(out.Students, *row)
	}
	return out, nil
}
