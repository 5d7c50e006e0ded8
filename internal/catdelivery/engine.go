// Package catdelivery is the live adaptive (CAT) delivery subsystem: the
// interactive counterpart of the offline simulator in internal/adaptive.
// Where internal/delivery hands a learner a fixed form up front, a CAT
// session hands out ONE item at a time — each response re-estimates the
// learner's ability (EAP theta and its posterior SD) and the next item is
// chosen to be maximally informative at the new estimate, subject to
// per-item exposure caps, until a stopping rule fires (SE target reached,
// max items administered, or pool exhausted).
//
// Architecture mirrors internal/delivery: sessions live in a sharded
// registry (internal/shardmap) with per-session locks, captures flow into
// a delivery.Monitor, and unrelated learners never contend. Unlike
// fixed-form sessions, every adaptive session is persisted to the
// bank.Storage after each mutation (bank.AdaptiveSessionRecord), so with
// a journaled bank a mid-test crash resumes exactly where the learner
// stopped: the response stream re-derives theta/SE and item selection is
// re-seeded deterministically.
//
// Finished sessions drain into a ResponseLog — the calibration feedback
// loop's collection point. Recalibrate folds the logged responses back into
// the exam's stored ItemParams (fixed-ability difficulty refit, see
// internal/adaptive/calibrate.go), so pool parameters converge toward what
// real learners demonstrate instead of staying hand-authored forever.
package catdelivery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mineassess/internal/adaptive"
	"mineassess/internal/bank"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/item"
	"mineassess/internal/shardmap"
	"mineassess/internal/simulate"
	"mineassess/internal/trace"
)

// sessionCtxPutter is the optional context-carrying persist that journaled
// backends implement (bank.Journal.PutAdaptiveSessionCtx); when the store
// provides it, a traced request's WAL commit parents under the engine span.
type sessionCtxPutter interface {
	PutAdaptiveSessionCtx(ctx context.Context, rec *bank.AdaptiveSessionRecord) error
}

// persistSession stores the session record, threading ctx through to the
// journal when the backend supports it.
func (e *Engine) persistSession(ctx context.Context, rec *bank.AdaptiveSessionRecord) error {
	if p, ok := e.store.(sessionCtxPutter); ok {
		return p.PutAdaptiveSessionCtx(ctx, rec)
	}
	return e.store.PutAdaptiveSession(rec)
}

// Errors callers may match.
var (
	ErrSessionNotFound = errors.New("catdelivery: adaptive session not found")
	ErrSessionFinished = errors.New("catdelivery: adaptive session already finished")
	ErrNotCalibrated   = errors.New("catdelivery: exam has no calibrated item parameters")
	ErrItemNotPending  = errors.New("catdelivery: response is not for the pending item")
	ErrNotGradable     = errors.New("catdelivery: adaptive pools need auto-gradable items")
	ErrNoResponses     = errors.New("catdelivery: no logged adaptive responses for exam")
)

// Selector names accepted in Config.Selector.
const (
	SelectorMaxInformation = "max-information"
	SelectorRandomesque    = "randomesque"
	SelectorRandom         = "random"
)

// DefaultRandomesqueK is the top-k width used when Config.RandomesqueK is 0.
const DefaultRandomesqueK = 5

// Config controls one live adaptive session. The zero value means: whole
// pool as MaxItems, no SE target, max-information selection, no exposure
// cap.
type Config struct {
	// MaxItems caps administrations; 0 means the calibrated pool size.
	MaxItems int `json:"maxItems,omitempty"`
	// MinItems is the floor before the SE rule may stop the test.
	MinItems int `json:"minItems,omitempty"`
	// TargetSE stops the test once the EAP posterior SD drops below it and
	// MinItems is satisfied; 0 disables the rule.
	TargetSE float64 `json:"targetSE,omitempty"`
	// Selector is one of the Selector* names; empty means max-information.
	Selector string `json:"selector,omitempty"`
	// RandomesqueK is the randomesque top-k width (0 = DefaultRandomesqueK).
	RandomesqueK int `json:"randomesqueK,omitempty"`
	// MaxExposure caps any item's administration rate across sessions of
	// the same exam (administrations / sessions started); 0 disables.
	// Capped items are withheld unless every remaining item is capped, in
	// which case the least-exposed remaining item is used — the test always
	// progresses.
	MaxExposure float64 `json:"maxExposure,omitempty"`
}

// validate rejects unusable configurations with typed errors, reusing the
// adaptive package's sentinel so callers match one error family.
func (c Config) validate() error {
	if c.MaxItems < 0 {
		return fmt.Errorf("%w: MaxItems must not be negative, got %d",
			adaptive.ErrInvalidConfig, c.MaxItems)
	}
	if c.MinItems < 0 {
		return fmt.Errorf("%w: MinItems must not be negative, got %d",
			adaptive.ErrInvalidConfig, c.MinItems)
	}
	if c.TargetSE < 0 {
		return fmt.Errorf("%w: TargetSE must not be negative, got %v",
			adaptive.ErrInvalidConfig, c.TargetSE)
	}
	if c.RandomesqueK < 0 {
		return fmt.Errorf("%w: RandomesqueK must not be negative, got %d",
			adaptive.ErrInvalidConfig, c.RandomesqueK)
	}
	if c.MaxExposure < 0 || c.MaxExposure > 1 {
		return fmt.Errorf("%w: MaxExposure %v outside [0,1]",
			adaptive.ErrInvalidConfig, c.MaxExposure)
	}
	switch c.Selector {
	case "", SelectorMaxInformation, SelectorRandomesque, SelectorRandom:
	default:
		return fmt.Errorf("%w: unknown selector %q", adaptive.ErrInvalidConfig, c.Selector)
	}
	return nil
}

// Session is one learner's live adaptive sitting. ID, ExamID and StudentID
// are fixed at start; everything else is guarded by mu. The persisted
// record (rec) is the single source of truth — in-memory derived state
// (responses, pending problem) is rebuilt from it on restart.
type Session struct {
	ID        string
	ExamID    string
	StudentID string

	mu        sync.Mutex
	rec       *bank.AdaptiveSessionRecord
	pool      []adaptive.PoolItem
	problems  map[string]*item.Problem
	responses []adaptive.ResponseRecord
	pending   *item.Problem
	// grid is the exam's shared precomputed information table, rows aligned
	// with pool. Snapshotted at start like pool itself; sessions never see a
	// mid-test recalibration.
	grid *adaptive.InfoGrid
}

// ItemView is the learner-facing projection of the pending item: question
// and options only, never the answer key.
type ItemView struct {
	ProblemID string        `json:"problemId"`
	Question  string        `json:"question"`
	Style     string        `json:"style"`
	Options   []item.Option `json:"options,omitempty"`
	// Position is the 1-based administration index of this item.
	Position int `json:"position"`
	MaxItems int `json:"maxItems"`
}

// Progress reports the session after a response: the updated estimate and
// either the next item or the stop decision.
type Progress struct {
	SessionID    string    `json:"sessionId"`
	Theta        float64   `json:"theta"`
	SE           float64   `json:"se"`
	Administered int       `json:"administered"`
	Done         bool      `json:"done"`
	StopReason   string    `json:"stopReason,omitempty"`
	Next         *ItemView `json:"next,omitempty"`
}

// Outcome is the final result of a finished adaptive session.
type Outcome struct {
	SessionID    string   `json:"sessionId"`
	ExamID       string   `json:"examId"`
	StudentID    string   `json:"studentId"`
	Theta        float64  `json:"theta"`
	SE           float64  `json:"se"`
	Administered []string `json:"administered"`
	StopReason   string   `json:"stopReason"`
}

// Stop reasons recorded on finished sessions.
const (
	StopSETarget      = "se-target"
	StopMaxItems      = "max-items"
	StopPoolExhausted = "pool-exhausted"
	StopByCaller      = "finished-by-caller"
)

// examExposure tracks per-exam administration counts for exposure control.
type examExposure struct {
	starts int
	counts map[string]int
}

// Engine manages live adaptive sessions over calibrated pools in a
// bank.Storage. Construction restores any persisted sessions (see
// NewEngine), so a restarted server carries live CAT sittings forward.
type Engine struct {
	store    bank.Storage
	sessions *shardmap.Map[*Session]
	monitor  *delivery.Monitor
	now      func() time.Time
	nextID   atomic.Int64
	log      *ResponseLog

	// bus receives adaptive.* lifecycle events. Events are published only
	// AFTER the session record is durably persisted, so a subscriber never
	// observes state a crash could roll back; a nil bus disables emission.
	bus *events.Bus

	expoMu   sync.Mutex
	exposure map[string]*examExposure

	// gridMu guards grids, the per-exam cache of precomputed information
	// tables. Entries are fingerprinted by the pool's IRT parameters and
	// rebuilt when they change (recalibration, authoring edits).
	gridMu sync.Mutex
	grids  map[string]*examGrid

	// recalMu serializes Recalibrate's read-modify-write of an exam
	// record so two concurrent passes cannot overwrite each other.
	recalMu sync.Mutex

	restoreSkipped int // sessions NewEngine could not rehydrate
}

// NewEngine builds an adaptive engine over the storage and restores every
// persisted adaptive session: active sessions resume where they stopped
// (the pending item stays pending), finished ones re-drain into the
// response log so a restart never loses calibration data. now may be nil
// for wall-clock time; monitorCapacity bounds the per-session snapshot ring
// (0 disables monitoring).
func NewEngine(store bank.Storage, now func() time.Time, monitorCapacity int) (*Engine, error) {
	if now == nil {
		now = time.Now
	}
	e := &Engine{
		store:    store,
		sessions: shardmap.New[*Session](delivery.DefaultSessionShards),
		monitor:  delivery.NewMonitor(monitorCapacity),
		now:      now,
		log:      NewResponseLog(),
		exposure: make(map[string]*examExposure),
		grids:    make(map[string]*examGrid),
	}
	for _, id := range store.AdaptiveSessionIDs() {
		rec, err := store.AdaptiveSession(id)
		if err != nil {
			if errors.Is(err, bank.ErrAdaptiveSessionNotFound) {
				continue // deleted between the listing and the fetch
			}
			return nil, err
		}
		if err := e.restore(rec); err != nil {
			// A session referencing a since-deleted exam or pool item is
			// a domain inconsistency, not a storage fault: skip it rather
			// than crash-loop the server on every boot. The record stays
			// in the bank for operator inspection; RestoreSkipped reports
			// the count so examserver can log it.
			e.restoreSkipped++
			continue
		}
	}
	return e, nil
}

// RestoreSkipped reports how many persisted sessions could not be
// rehydrated at construction (exam deleted, pool item removed).
func (e *Engine) RestoreSkipped() int { return e.restoreSkipped }

// SetEventBus attaches a live event bus; session mutations publish
// adaptive.* events onto it after their durable persist. Call before
// serving traffic (the field is not synchronized against in-flight
// operations).
func (e *Engine) SetEventBus(b *events.Bus) { e.bus = b }

// Monitor exposes the engine's monitor subsystem.
func (e *Engine) Monitor() *delivery.Monitor { return e.monitor }

// ResponseLog exposes the calibration sink.
func (e *Engine) ResponseLog() *ResponseLog { return e.log }

// SessionCount returns the number of registered sessions (any state).
func (e *Engine) SessionCount() int { return e.sessions.Len() }

// HasSession reports whether a session ID is registered.
func (e *Engine) HasSession(id string) bool {
	_, ok := e.sessions.Get(id)
	return ok
}

// autoGradable reports whether a style can be scored without an instructor
// — the precondition for driving a CAT loop off the response.
func autoGradable(s item.Style) bool {
	switch s {
	case item.MultipleChoice, item.TrueFalse, item.Completion, item.Match:
		return true
	default:
		return false
	}
}

// loadPool assembles the calibrated pool of an exam: every problem with IRT
// parameters, in exam order. Non-auto-gradable calibrated items are a
// configuration error, reported rather than silently skipped.
func (e *Engine) loadPool(rec *bank.ExamRecord) ([]adaptive.PoolItem, map[string]*item.Problem, error) {
	ids := rec.CalibratedPool()
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotCalibrated, rec.ID)
	}
	problems, err := e.store.Problems(ids)
	if err != nil {
		return nil, nil, err
	}
	pool := make([]adaptive.PoolItem, 0, len(ids))
	byID := make(map[string]*item.Problem, len(ids))
	for i, pid := range ids {
		p := problems[i]
		if !autoGradable(p.Style) {
			return nil, nil, fmt.Errorf("%w: %s is %s", ErrNotGradable, pid, p.Style)
		}
		pool = append(pool, adaptive.PoolItem{ID: pid, Params: rec.ItemParams[pid]})
		byID[pid] = p
	}
	return pool, byID, nil
}

// Start opens a live adaptive session on a calibrated exam and hands out
// the first item. seed drives item selection for the randomized selectors
// (and tie-breaking determinism on restart). A traced ctx gains a cat.start
// child span whose subtree includes the session persist (wal.commit) and
// the adaptive.started bus publish; ctx does not cancel the operation.
func (e *Engine) Start(ctx context.Context, examID, studentID string, cfg Config, seed int64) (_ *Session, _ *ItemView, err error) {
	ctx, sp := trace.StartSpan(ctx, "cat.start")
	sp.SetStr("exam.id", examID)
	defer sp.EndErr(&err)
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	examRec, err := e.store.Exam(examID)
	if err != nil {
		return nil, nil, err
	}
	pool, problems, err := e.loadPool(examRec)
	if err != nil {
		return nil, nil, err
	}
	// MaxItems 0 defaults to the pool size; values above it are legal — the
	// pool-exhaustion rule stops the session when the items run out.
	maxItems := cfg.MaxItems
	if maxItems == 0 {
		maxItems = len(pool)
	}
	// Checked after the default resolves: a floor above the ceiling would
	// silently disable the SE stopping rule.
	if cfg.MinItems > maxItems {
		return nil, nil, fmt.Errorf("%w: MinItems %d exceeds MaxItems %d",
			adaptive.ErrInvalidConfig, cfg.MinItems, maxItems)
	}
	rec := &bank.AdaptiveSessionRecord{
		ID:           fmt.Sprintf("cat-%06d", e.nextID.Add(1)),
		ExamID:       examID,
		StudentID:    studentID,
		Seed:         seed,
		MaxItems:     maxItems,
		MinItems:     cfg.MinItems,
		TargetSE:     cfg.TargetSE,
		Selector:     cfg.Selector,
		RandomesqueK: cfg.RandomesqueK,
		MaxExposure:  cfg.MaxExposure,
		State:        bank.AdaptiveStateActive,
	}
	s := &Session{
		ID:        rec.ID,
		ExamID:    examID,
		StudentID: studentID,
		rec:       rec,
		pool:      pool,
		problems:  problems,
		grid:      e.gridFor(examID, pool),
	}
	e.trackStart(examID)
	first := e.selectNext(s, 0)
	if first == nil {
		// Unreachable in practice (loadPool guarantees a non-empty pool),
		// kept as a guard against future selector bugs.
		return nil, nil, fmt.Errorf("%w: %s", ErrNotCalibrated, examID)
	}
	s.pending = first
	rec.PendingID = first.ID
	if err := e.persistSession(ctx, rec); err != nil {
		return nil, nil, err
	}
	e.sessions.Put(s.ID, s)
	e.monitor.Capture(s.ID, e.now())
	e.bus.PublishCtx(trace.Detach(ctx), events.Event{
		Type: events.AdaptiveStarted, ExamID: examID, SessionID: s.ID,
		StudentID: studentID, Total: maxItems,
	})
	return s, s.itemView(first), nil
}

// trackStart bumps the exam's session counter for exposure accounting.
func (e *Engine) trackStart(examID string) {
	e.expoMu.Lock()
	defer e.expoMu.Unlock()
	ex := e.exposure[examID]
	if ex == nil {
		ex = &examExposure{counts: make(map[string]int)}
		e.exposure[examID] = ex
	}
	ex.starts++
}

// trackAdministration counts one hand-out of an item.
func (e *Engine) trackAdministration(examID, problemID string) {
	e.expoMu.Lock()
	defer e.expoMu.Unlock()
	ex := e.exposure[examID]
	if ex == nil {
		ex = &examExposure{counts: make(map[string]int)}
		e.exposure[examID] = ex
	}
	ex.counts[problemID]++
}

// ExposureRates reports each calibrated pool item's administration rate for
// an exam (administrations / sessions started), with explicit 0 entries for
// never-administered items.
func (e *Engine) ExposureRates(examID string) (map[string]float64, error) {
	rec, err := e.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	ids := rec.CalibratedPool()
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotCalibrated, examID)
	}
	out := make(map[string]float64, len(ids))
	e.expoMu.Lock()
	defer e.expoMu.Unlock()
	ex := e.exposure[examID]
	for _, id := range ids {
		if ex == nil || ex.starts == 0 {
			out[id] = 0
			continue
		}
		out[id] = float64(ex.counts[id]) / float64(ex.starts)
	}
	return out, nil
}

// examGrid is one cached information table plus the pool-parameter
// fingerprint it was built from.
type examGrid struct {
	params []simulate.IRTParams
	grid   *adaptive.InfoGrid
}

// gridFor returns the exam's shared information grid, building (or
// rebuilding, when the pool's parameters changed since it was cached) on
// demand. Rows align with pool order.
func (e *Engine) gridFor(examID string, pool []adaptive.PoolItem) *adaptive.InfoGrid {
	e.gridMu.Lock()
	defer e.gridMu.Unlock()
	if c := e.grids[examID]; c != nil && len(c.params) == len(pool) {
		match := true
		for i, it := range pool {
			if c.params[i] != it.Params {
				match = false
				break
			}
		}
		if match {
			return c.grid
		}
	}
	params := make([]simulate.IRTParams, len(pool))
	for i, it := range pool {
		params[i] = it.Params
	}
	c := &examGrid{params: params, grid: adaptive.NewDefaultInfoGrid(pool)}
	e.grids[examID] = c
	return c.grid
}

// invalidateGrid drops an exam's cached information table; the next session
// start rebuilds it from the updated parameters.
func (e *Engine) invalidateGrid(examID string) {
	e.gridMu.Lock()
	delete(e.grids, examID)
	e.gridMu.Unlock()
}

// selectNext picks the next item for the session, honouring the exposure
// cap. Callers hold s.mu (or own the session exclusively, as Start does).
// Returns nil when the pool is exhausted.
func (e *Engine) selectNext(s *Session, theta float64) *item.Problem {
	used := make(map[string]bool, len(s.rec.Administered)+1)
	for _, id := range s.rec.Administered {
		used[id] = true
	}
	rows := make([]int, 0, len(s.pool))
	for i, it := range s.pool {
		if !used[it.ID] {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	candidates := rows
	if s.rec.MaxExposure > 0 {
		if open := e.underCap(s.ExamID, s.pool, rows, s.rec.MaxExposure); len(open) > 0 {
			candidates = open
		} else {
			candidates = []int{e.leastExposed(s.ExamID, s.pool, rows)}
		}
	}
	// Deterministic per-step RNG: the seed and administration count fully
	// determine the draw, so a restarted session re-selects identically.
	step := int64(len(s.rec.Administered) + 1)
	rng := rand.New(rand.NewSource(s.rec.Seed + step*0x9E3779B9))
	chosen := s.pool[e.pickRow(s, rng, candidates, theta)]
	e.trackAdministration(s.ExamID, chosen.ID)
	return s.problems[chosen.ID]
}

// pickRow applies the session's selection rule over candidate pool rows.
// The information-driven rules scan the precomputed grid — a flat array
// walk instead of pool-size 3PL evaluations per step.
func (e *Engine) pickRow(s *Session, rng *rand.Rand, candidates []int, theta float64) int {
	switch s.rec.Selector {
	case SelectorRandom:
		// Same draw the exact RandomSelection selector would make.
		return candidates[rng.Intn(len(candidates))]
	case SelectorRandomesque:
		k := s.rec.RandomesqueK
		if k <= 0 {
			k = DefaultRandomesqueK
		}
		return s.grid.TopK(rng, candidates, k, theta)
	default:
		return s.grid.ArgMax(candidates, theta)
	}
}

// underCap filters candidate pool rows whose administration rate is below
// the exposure limit.
func (e *Engine) underCap(examID string, pool []adaptive.PoolItem, rows []int, limit float64) []int {
	e.expoMu.Lock()
	defer e.expoMu.Unlock()
	ex := e.exposure[examID]
	if ex == nil || ex.starts == 0 {
		return rows
	}
	out := make([]int, 0, len(rows))
	for _, row := range rows {
		if float64(ex.counts[pool[row].ID])/float64(ex.starts) < limit {
			out = append(out, row)
		}
	}
	return out
}

// leastExposed returns the candidate pool row with the lowest administration
// count, breaking ties by ID for determinism.
func (e *Engine) leastExposed(examID string, pool []adaptive.PoolItem, rows []int) int {
	e.expoMu.Lock()
	defer e.expoMu.Unlock()
	ex := e.exposure[examID]
	best := rows[0]
	bestCount := -1
	for _, row := range rows {
		c := 0
		if ex != nil {
			c = ex.counts[pool[row].ID]
		}
		if bestCount == -1 || c < bestCount || (c == bestCount && pool[row].ID < pool[best].ID) {
			best, bestCount = row, c
		}
	}
	return best
}

func (s *Session) itemView(p *item.Problem) *ItemView {
	return &ItemView{
		ProblemID: p.ID,
		Question:  p.Question,
		Style:     p.Style.String(),
		Options:   append([]item.Option(nil), p.Options...),
		Position:  len(s.rec.Administered) + 1,
		MaxItems:  s.rec.MaxItems,
	}
}

// lock looks up the session and returns it locked. The caller must Unlock.
func (e *Engine) lock(id string) (*Session, error) {
	s, ok := e.sessions.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	s.mu.Lock()
	return s, nil
}

// NextItem returns the item the session is waiting on, without mutating
// anything — safe to re-fetch after a client crash.
func (e *Engine) NextItem(sessionID string) (*ItemView, error) {
	s, err := e.lock(sessionID)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if s.rec.State != bank.AdaptiveStateActive || s.pending == nil {
		return nil, fmt.Errorf("%w: %s", ErrSessionFinished, s.ID)
	}
	return s.itemView(s.pending), nil
}

// SubmitResponse grades the learner's answer to the pending item,
// re-estimates ability, applies the stopping rules, and either hands out
// the next item or finishes the session. Every submission persists the
// session record and triggers a monitor capture. A traced ctx gains a
// cat.respond span.
func (e *Engine) SubmitResponse(ctx context.Context, sessionID, problemID, response string) (_ *Progress, err error) {
	ctx, sp := trace.StartSpan(ctx, "cat.respond")
	sp.SetStr("problem.id", problemID)
	defer sp.EndErr(&err)
	s, err := e.lock(sessionID)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if s.rec.State != bank.AdaptiveStateActive || s.pending == nil {
		return nil, fmt.Errorf("%w: %s", ErrSessionFinished, s.ID)
	}
	if problemID != s.pending.ID {
		return nil, fmt.Errorf("%w: got %s, pending %s", ErrItemNotPending, problemID, s.pending.ID)
	}
	credit, gradable := s.pending.Grade(response)
	if !gradable {
		// loadPool filters non-gradable styles, so this is defensive.
		return nil, fmt.Errorf("%w: %s", ErrNotGradable, problemID)
	}
	correct := credit >= 1-1e-9
	params := s.paramsOf(problemID)

	// The mutation must be all-or-nothing: if estimation or persistence
	// fails, the session rolls back to its pre-submit state so the
	// learner's retry of the same {problemId, response} still addresses
	// the pending item instead of hitting ITEM_NOT_PENDING — and a
	// crash+restart (which replays the persisted record) agrees with
	// what the client was told. Exposure counters bumped by a rolled-back
	// selection stay bumped; they are approximate accounting by design.
	prevLen := len(s.rec.Administered)
	prevTheta, prevSE := s.rec.Theta, s.rec.SE
	prevPending, prevPendingID := s.pending, s.rec.PendingID
	prevState, prevStop := s.rec.State, s.rec.StopReason
	rollback := func() {
		s.responses = s.responses[:prevLen]
		s.rec.Administered = s.rec.Administered[:prevLen]
		s.rec.Correct = s.rec.Correct[:prevLen]
		s.rec.Theta, s.rec.SE = prevTheta, prevSE
		s.pending, s.rec.PendingID = prevPending, prevPendingID
		s.rec.State, s.rec.StopReason = prevState, prevStop
	}

	s.responses = append(s.responses, adaptive.ResponseRecord{Params: params, Correct: correct})
	s.rec.Administered = append(s.rec.Administered, problemID)
	s.rec.Correct = append(s.rec.Correct, correct)

	theta, sd, err := adaptive.EstimateEAP(s.responses)
	if err != nil {
		rollback()
		return nil, err
	}
	s.rec.Theta, s.rec.SE = theta, sd

	prog := &Progress{
		SessionID:    s.ID,
		Theta:        theta,
		SE:           sd,
		Administered: len(s.rec.Administered),
	}
	n := len(s.rec.Administered)
	switch {
	case s.rec.TargetSE > 0 && sd <= s.rec.TargetSE && n >= s.rec.MinItems:
		s.finishLocked(StopSETarget)
	case n >= s.rec.MaxItems:
		s.finishLocked(StopMaxItems)
	default:
		next := e.selectNext(s, theta)
		if next == nil {
			s.finishLocked(StopPoolExhausted)
		} else {
			s.pending = next
			s.rec.PendingID = next.ID
			prog.Next = s.itemView(next)
		}
	}
	if s.rec.State == bank.AdaptiveStateFinished {
		prog.Done = true
		prog.StopReason = s.rec.StopReason
		prog.Next = nil
	}
	if err := e.persistSession(ctx, s.rec); err != nil {
		rollback()
		return nil, err
	}
	// Drain into the calibration log — and publish events — only after the
	// finish is durable, so a rolled-back mutation never leaves a phantom
	// log entry or a phantom event. Publishes detach from the request
	// context (cancelation must not reach subscribers) while keeping the
	// trace span so the bus.publish spans parent correctly.
	evctx := trace.Detach(ctx)
	e.bus.PublishCtx(evctx, events.Event{
		Type: events.AdaptiveResponded, ExamID: s.ExamID, SessionID: s.ID,
		StudentID: s.StudentID, ProblemID: problemID, Correct: correct,
		Credit: credit, Answered: len(s.rec.Administered), Total: s.rec.MaxItems,
		Theta: theta, SE: sd,
	})
	if s.rec.State == bank.AdaptiveStateFinished {
		e.log.Add(entryOf(s.rec))
		e.bus.PublishCtx(evctx, events.Event{
			Type: events.AdaptiveFinished, ExamID: s.ExamID, SessionID: s.ID,
			StudentID: s.StudentID, Answered: len(s.rec.Administered),
			Theta: s.rec.Theta, SE: s.rec.SE, StopReason: s.rec.StopReason,
		})
	}
	e.monitor.Capture(s.ID, e.now())
	return prog, nil
}

// paramsOf returns the pool parameters of an item. Callers hold s.mu.
func (s *Session) paramsOf(problemID string) simulate.IRTParams {
	for _, it := range s.pool {
		if it.ID == problemID {
			return it.Params
		}
	}
	return simulate.IRTParams{}
}

// finishLocked transitions the session to finished. Callers hold s.mu,
// must persist the record, and drain it into the response log only once
// persistence succeeds.
func (s *Session) finishLocked(reason string) {
	s.rec.State = bank.AdaptiveStateFinished
	s.rec.StopReason = reason
	s.rec.PendingID = ""
	s.pending = nil
}

// Finish closes an adaptive session early (learner walked away) and returns
// its outcome; finishing a finished session is idempotent. A traced ctx
// gains a cat.finish span.
func (e *Engine) Finish(ctx context.Context, sessionID string) (_ *Outcome, err error) {
	ctx, sp := trace.StartSpan(ctx, "cat.finish")
	defer sp.EndErr(&err)
	s, err := e.lock(sessionID)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if s.rec.State == bank.AdaptiveStateActive {
		prevPending, prevPendingID := s.pending, s.rec.PendingID
		s.finishLocked(StopByCaller)
		if err := e.persistSession(ctx, s.rec); err != nil {
			s.rec.State, s.rec.StopReason = bank.AdaptiveStateActive, ""
			s.pending, s.rec.PendingID = prevPending, prevPendingID
			return nil, err
		}
		e.log.Add(entryOf(s.rec))
		e.bus.PublishCtx(trace.Detach(ctx), events.Event{
			Type: events.AdaptiveFinished, ExamID: s.ExamID, SessionID: s.ID,
			StudentID: s.StudentID, Answered: len(s.rec.Administered),
			Theta: s.rec.Theta, SE: s.rec.SE, StopReason: s.rec.StopReason,
		})
		e.monitor.Capture(s.ID, e.now())
	}
	return outcomeOf(s.rec), nil
}

// Status reports the session's current progress as an Outcome-shaped
// summary plus the pending item ID.
type Status struct {
	SessionID    string  `json:"sessionId"`
	ExamID       string  `json:"examId"`
	StudentID    string  `json:"studentId"`
	State        string  `json:"state"`
	Theta        float64 `json:"theta"`
	SE           float64 `json:"se"`
	Administered int     `json:"administered"`
	MaxItems     int     `json:"maxItems"`
	PendingID    string  `json:"pendingId,omitempty"`
	StopReason   string  `json:"stopReason,omitempty"`
}

// Status reports a session's current summary.
func (e *Engine) Status(sessionID string) (Status, error) {
	s, err := e.lock(sessionID)
	if err != nil {
		return Status{}, err
	}
	defer s.mu.Unlock()
	return Status{
		SessionID:    s.ID,
		ExamID:       s.ExamID,
		StudentID:    s.StudentID,
		State:        s.rec.State,
		Theta:        s.rec.Theta,
		SE:           s.rec.SE,
		Administered: len(s.rec.Administered),
		MaxItems:     s.rec.MaxItems,
		PendingID:    s.rec.PendingID,
		StopReason:   s.rec.StopReason,
	}, nil
}

// Outcome returns a finished session's result.
func (e *Engine) Outcome(sessionID string) (*Outcome, error) {
	s, err := e.lock(sessionID)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if s.rec.State != bank.AdaptiveStateFinished {
		return nil, fmt.Errorf("%w: %s still active", ErrSessionNotFound, sessionID)
	}
	return outcomeOf(s.rec), nil
}

func outcomeOf(rec *bank.AdaptiveSessionRecord) *Outcome {
	return &Outcome{
		SessionID:    rec.ID,
		ExamID:       rec.ExamID,
		StudentID:    rec.StudentID,
		Theta:        rec.Theta,
		SE:           rec.SE,
		Administered: append([]string(nil), rec.Administered...),
		StopReason:   rec.StopReason,
	}
}

// restore rehydrates one persisted session into the registry. Finished
// sessions need no pool — they register for status/outcome queries with
// their persisted estimates and re-drain into the response log. Active
// sessions reload pool and problems from the bank and re-derive theta/SE
// from the response stream.
func (e *Engine) restore(rec *bank.AdaptiveSessionRecord) error {
	s := &Session{
		ID:        rec.ID,
		ExamID:    rec.ExamID,
		StudentID: rec.StudentID,
		rec:       rec,
	}
	if rec.State == bank.AdaptiveStateActive {
		examRec, err := e.store.Exam(rec.ExamID)
		if err != nil {
			return err
		}
		pool, problems, err := e.loadPool(examRec)
		if err != nil {
			return err
		}
		s.pool, s.problems = pool, problems
		s.grid = e.gridFor(rec.ExamID, pool)
		byID := make(map[string]adaptive.PoolItem, len(pool))
		for _, it := range pool {
			byID[it.ID] = it
		}
		for i, pid := range rec.Administered {
			it, ok := byID[pid]
			if !ok {
				return fmt.Errorf("administered item %s no longer in pool", pid)
			}
			s.responses = append(s.responses, adaptive.ResponseRecord{
				Params: it.Params, Correct: rec.Correct[i],
			})
		}
		if len(s.responses) > 0 {
			theta, sd, err := adaptive.EstimateEAP(s.responses)
			if err != nil {
				return err
			}
			rec.Theta, rec.SE = theta, sd
		}
		if rec.PendingID == "" {
			return errors.New("active session has no pending item")
		}
		p, ok := problems[rec.PendingID]
		if !ok {
			return fmt.Errorf("pending item %s no longer in pool", rec.PendingID)
		}
		s.pending = p
	} else {
		e.log.Add(entryOf(rec))
	}
	// Rebuild exposure accounting and keep new session IDs past the
	// restored ones.
	e.expoMu.Lock()
	ex := e.exposure[rec.ExamID]
	if ex == nil {
		ex = &examExposure{counts: make(map[string]int)}
		e.exposure[rec.ExamID] = ex
	}
	ex.starts++
	for _, pid := range rec.Administered {
		ex.counts[pid]++
	}
	if rec.PendingID != "" {
		ex.counts[rec.PendingID]++
	}
	e.expoMu.Unlock()
	if n, ok := numericSuffix(rec.ID); ok {
		for {
			cur := e.nextID.Load()
			if n <= cur || e.nextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	e.sessions.Put(s.ID, s)
	return nil
}

// numericSuffix parses the counter out of a "cat-%06d" session ID.
func numericSuffix(id string) (int64, bool) {
	idx := strings.LastIndexByte(id, '-')
	if idx < 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(id[idx+1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// PurgeFinished removes every finished session from the registry and the
// storage backend — the retention pass that keeps a long-lived server's
// memory, WAL, and boot time from scaling with lifetime session count.
// Purged sessions' calibration data stays in the response log for the
// rest of this process's lifetime, so Recalibrate keeps its input; purge
// after recalibrating to retain nothing.
//
// A storage failure on one session does not abort the sweep: the failed
// session stays registered (a later purge retries it) and the remaining
// finished sessions are still purged. The purged count is always valid;
// per-session failures come back joined into one error.
func (e *Engine) PurgeFinished() (int, error) {
	purged := 0
	var errs []error
	for _, id := range e.SessionIDs() {
		s, ok := e.sessions.Get(id)
		if !ok {
			continue // already purged concurrently
		}
		s.mu.Lock()
		if s.rec.State == bank.AdaptiveStateFinished {
			err := e.store.DeleteAdaptiveSession(id)
			if err != nil && !errors.Is(err, bank.ErrAdaptiveSessionNotFound) {
				errs = append(errs, fmt.Errorf("purge session %s: %w", id, err))
				s.mu.Unlock()
				continue
			}
			e.sessions.Delete(id)
			e.monitor.Forget(id)
			purged++
		}
		s.mu.Unlock()
	}
	return purged, errors.Join(errs...)
}

// SessionIDs returns every registered session ID, sorted (admin views and
// tests).
func (e *Engine) SessionIDs() []string { return e.sessions.Keys() }
