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
// registry (internal/shardmap), each with its own lock and its own
// delivery.Monitor ring, and unrelated learners never contend. Unlike
// fixed-form sessions, every adaptive session is persisted to the
// bank.Storage after each mutation (bank.AdaptiveSessionRecord), so with
// a journaled bank a mid-test crash resumes exactly where the learner
// stopped: the response stream re-derives theta/SE and item selection is
// re-seeded deterministically. The record is the one home of a sitting's
// state: a mutation builds the next record beside the session's, and the
// next record replaces the session's only after it persists.
//
// Sittings on one exam share one immutable calibrated pool (problems, IRT
// parameters and information grid), built once per bank generation: the
// next start after any problem or exam write rebuilds it, keeping the
// grid while the items and their parameters are unchanged, and a sitting
// keeps the pool it started on.
//
// What sittings teach the engine lives in one ledger per exam (examLedger):
// the starts and per-item hand-outs the exposure caps read, and every
// finished sitting's record, entered once. Recalibrate folds an exam's
// finished records back into its stored ItemParams (fixed-ability
// difficulty refit, see internal/adaptive/calibrate.go), so pool parameters
// converge toward what real learners demonstrate instead of staying
// hand-authored forever.
package catdelivery

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	if !(c.TargetSE >= 0) || math.IsInf(c.TargetSE, 1) { // NaN fails the first test
		return fmt.Errorf("%w: TargetSE must be finite and not negative, got %v",
			adaptive.ErrInvalidConfig, c.TargetSE)
	}
	if c.RandomesqueK < 0 {
		return fmt.Errorf("%w: RandomesqueK must not be negative, got %d",
			adaptive.ErrInvalidConfig, c.RandomesqueK)
	}
	if !(c.MaxExposure >= 0 && c.MaxExposure <= 1) { // NaN fails too
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

// Session is one learner's live adaptive sitting. ID, ExamID, StudentID
// and ledger (the exam's) are fixed at start; everything else, the monitor
// ring included, is guarded by mu. The last persisted record (rec) is the
// sitting's state: the pending item is pool.problem(rec.PendingID), and
// responses is rec's answered items paired with their pool parameters,
// rebuilt from rec on restart. rec and responses are replaced together,
// only after the next record persists. pool is the exam's shared pool as
// of the start (nil on a restored finished sitting): a sitting sees no
// edit or recalibration made after it started, until a restart restores
// it on the bank's current pool.
type Session struct {
	ID        string
	ExamID    string
	StudentID string
	ledger    *examLedger

	mu        sync.Mutex
	rec       *bank.AdaptiveSessionRecord
	pool      *examPool
	responses []adaptive.ResponseRecord
	monitor   delivery.Monitor
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

// Engine manages live adaptive sessions over calibrated pools in a
// bank.Storage. Construction restores any persisted sessions (see
// NewEngine), so a restarted server carries live CAT sittings forward.
type Engine struct {
	store           bank.Storage
	sessions        *shardmap.Map[*Session]
	monitorCapacity int // each session's snapshot ring bound; 0 disables capture
	now             func() time.Time
	nextID          atomic.Int64

	// bus receives adaptive.* lifecycle events. Events are published only
	// AFTER the session record is durably persisted, so a subscriber never
	// observes state a crash could roll back; a nil bus disables emission.
	bus *events.Bus

	// ledgerMu guards ledgers: one per exam with a registered sitting,
	// kept for the life of the engine.
	ledgerMu sync.Mutex
	ledgers  map[string]*examLedger

	// poolMu guards the pool cache (see poolFor): pools, each started
	// exam's calibrated pool built at bank generation poolGen; dropped, the
	// entries the last move to a newer generation displaced, kept only to
	// lend their grids to their exams' next builds; and building, each
	// exam's build in flight.
	poolMu   sync.Mutex
	poolGen  uint64
	pools    map[string]*examPool
	dropped  map[string]*examPool
	building map[string]*poolBuild

	// recalMu serializes Recalibrate's read-modify-write of an exam
	// record so two concurrent passes cannot overwrite each other.
	recalMu sync.Mutex

	restoreSkipped int // sessions NewEngine could not rehydrate
}

// NewEngine builds an adaptive engine over the storage and restores every
// persisted adaptive session: active sessions resume where they stopped
// (the pending item stays pending), finished ones re-enter their exam's
// ledger so a restart never loses calibration data. now may be nil
// for wall-clock time; monitorCapacity bounds the per-session snapshot ring
// (0 disables monitoring).
func NewEngine(store bank.Storage, now func() time.Time, monitorCapacity int) (*Engine, error) {
	if now == nil {
		now = time.Now
	}
	e := &Engine{
		store:           store,
		sessions:        shardmap.New[*Session](delivery.DefaultSessionShards),
		monitorCapacity: monitorCapacity,
		now:             now,
		ledgers:         make(map[string]*examLedger),
		pools:           make(map[string]*examPool),
		building:        make(map[string]*poolBuild),
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

// SessionCount returns the number of registered sessions (any state).
func (e *Engine) SessionCount() int { return e.sessions.Len() }

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

// examPool is one exam's calibrated pool as of a bank generation: every
// problem with IRT parameters, in exam order, indexed by row. It is
// immutable once built, and every sitting started on it shares it.
type examPool struct {
	gen      uint64              // bank generation read before the build
	items    []adaptive.PoolItem // calibrated items in exam order
	problems []*item.Problem     // aligned with items
	rows     map[string]int      // problem ID -> row
	grid     *adaptive.InfoGrid  // precomputed information, rows aligned with items
}

// problem returns the pool's problem with the given ID, or nil.
func (p *examPool) problem(id string) *item.Problem {
	if row, ok := p.rows[id]; ok {
		return p.problems[row]
	}
	return nil
}

// usedRows appends the rows of the administered IDs to dst and returns
// them sorted and distinct. An exam that lists a problem twice pools it on
// two rows, and its ID marks both.
func (p *examPool) usedRows(dst []int, administered []string) []int {
	if len(p.rows) == len(p.items) {
		for _, id := range administered {
			if row, ok := p.rows[id]; ok {
				dst = append(dst, row)
			}
		}
	} else {
		for row, it := range p.items {
			if slices.Contains(administered, it.ID) {
				dst = append(dst, row)
			}
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// poolBuild is one exam's pool build in flight. Callers that want the
// exam's pool at the same generation wait for done and share its result.
type poolBuild struct {
	gen  uint64
	done chan struct{}
	pool *examPool
	err  error
}

// poolFor returns the exam's calibrated pool at the bank's current
// generation: the cached one while the generation is unchanged, otherwise
// one built from a single Exam and Problems read. Concurrent callers for
// one exam and generation share one build; a failed build is not cached.
// The generation is read before the bank, so a write racing the build tags
// the entry older than its content and the next call rebuilds it. The
// cache holds one generation: a build at a newer generation drops every
// older entry, keeping them until the next such move only to lend their
// grids to their exams' next builds, and a build that finishes after a
// newer one is served but not cached.
func (e *Engine) poolFor(examID string) (*examPool, error) {
	gen := e.store.Generation()
	e.poolMu.Lock()
	if p := e.pools[examID]; p != nil && p.gen == gen {
		e.poolMu.Unlock()
		return p, nil
	}
	if b := e.building[examID]; b != nil && b.gen == gen {
		e.poolMu.Unlock()
		<-b.done
		return b.pool, b.err
	}
	b := &poolBuild{gen: gen, done: make(chan struct{})}
	e.building[examID] = b
	prev := e.pools[examID]
	if prev == nil {
		prev = e.dropped[examID]
	}
	e.poolMu.Unlock()

	b.pool, b.err = e.buildPool(examID, gen, prev)

	e.poolMu.Lock()
	if e.building[examID] == b {
		delete(e.building, examID)
	}
	if b.err == nil {
		if gen > e.poolGen {
			e.poolGen, e.dropped, e.pools = gen, e.pools, make(map[string]*examPool)
		}
		if gen == e.poolGen {
			e.pools[examID] = b.pool
			delete(e.dropped, examID)
		}
	}
	e.poolMu.Unlock()
	close(b.done)
	return b.pool, b.err
}

// buildPool reads the exam and its calibrated problems and builds their
// pool, tagged gen. It shares the exam's previous pool's information grid
// when the items and parameters are unchanged, so a write elsewhere in the
// bank costs the problems' re-read, not a new grid. Non-auto-gradable
// calibrated items are a configuration error, reported rather than
// silently skipped.
func (e *Engine) buildPool(examID string, gen uint64, prev *examPool) (*examPool, error) {
	rec, err := e.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	ids := rec.CalibratedPool()
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotCalibrated, examID)
	}
	problems, err := e.store.Problems(ids)
	if err != nil {
		return nil, err
	}
	pool := &examPool{
		gen:      gen,
		items:    make([]adaptive.PoolItem, len(ids)),
		problems: problems,
		rows:     make(map[string]int, len(ids)),
	}
	for i, pid := range ids {
		if !autoGradable(problems[i].Style) {
			return nil, fmt.Errorf("%w: %s is %s", ErrNotGradable, pid, problems[i].Style)
		}
		pool.items[i] = adaptive.PoolItem{ID: pid, Params: rec.ItemParams[pid]}
		pool.rows[pid] = i
	}
	if prev != nil && slices.Equal(prev.items, pool.items) {
		pool.grid = prev.grid
	} else {
		pool.grid = adaptive.NewDefaultInfoGrid(pool.items)
	}
	return pool, nil
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
	pool, err := e.poolFor(examID)
	if err != nil {
		return nil, nil, err
	}
	// MaxItems 0 defaults to the pool size; values above it are legal — the
	// pool-exhaustion rule stops the session when the items run out.
	maxItems := cfg.MaxItems
	if maxItems == 0 {
		maxItems = len(pool.items)
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
		ledger:    e.ledgerFor(examID),
		rec:       rec,
		pool:      pool,
	}
	s.ledger.start()
	first := s.selectNext(rec)
	if first == nil {
		// Unreachable in practice (poolFor guarantees a non-empty pool),
		// kept as a guard against future selector bugs.
		return nil, nil, fmt.Errorf("%w: %s", ErrNotCalibrated, examID)
	}
	rec.PendingID = first.ID
	if err := e.persistSession(ctx, rec); err != nil {
		return nil, nil, err
	}
	// Captured while the session is still private to this call.
	s.monitor.Capture(s.ID, e.monitorCapacity, e.now())
	e.sessions.Put(s.ID, s)
	e.bus.Publish(trace.Detach(ctx), events.Event{
		Type: events.AdaptiveStarted, ExamID: examID, SessionID: s.ID,
		StudentID: studentID, Total: maxItems,
	})
	return s, s.itemView(first), nil
}

// ledgerFor returns the exam's ledger, made by the exam's first registered
// sitting: a start on an unknown or uncalibrated exam never makes one.
func (e *Engine) ledgerFor(examID string) *examLedger {
	e.ledgerMu.Lock()
	defer e.ledgerMu.Unlock()
	l := e.ledgers[examID]
	if l == nil {
		l = &examLedger{handedOut: make(map[string]int)}
		e.ledgers[examID] = l
	}
	return l
}

// selectNext picks the item to hand out after rec's answered items, at
// rec's ability estimate, honouring the exposure cap, and counts the
// hand-out on the exam's ledger. Callers hold s.mu (or own the session
// exclusively, as Start does). Returns nil when the pool is exhausted. The
// hand-out is counted even if rec never persists; exposure counts are
// approximate accounting by design.
//
// The default rule, max-information without a cap, scans the grid's
// unused rows in place: it allocates nothing that grows with the pool and
// draws no random numbers. The randomized rules and the cap choose from a
// list of the unused rows (pickRow).
func (s *Session) selectNext(rec *bank.AdaptiveSessionRecord) *item.Problem {
	pool := s.pool
	var buf [64]int // a sitting's administered rows, on the stack while they fit
	used := pool.usedRows(buf[:0], rec.Administered)
	var row int
	if rec.MaxExposure == 0 && rec.Selector != SelectorRandom && rec.Selector != SelectorRandomesque {
		row = pool.grid.ArgMaxExcept(used, rec.Theta)
	} else {
		row = s.pickRow(rec, unusedRows(len(pool.items), used))
	}
	if row < 0 {
		return nil
	}
	s.ledger.handOut(pool.items[row].ID)
	return pool.problems[row]
}

// pickRow applies rec's selection rule, under its exposure cap, to the
// pool's unused rows (ascending) at rec's ability estimate; -1 when there
// are none. The information-driven rules scan the precomputed grid — a
// flat array walk instead of pool-size 3PL evaluations per step.
func (s *Session) pickRow(rec *bank.AdaptiveSessionRecord, rows []int) int {
	if len(rows) == 0 {
		return -1
	}
	candidates := rows
	if rec.MaxExposure > 0 {
		candidates = s.ledger.underCap(s.pool.items, rows, rec.MaxExposure)
	}
	switch rec.Selector {
	case SelectorRandom:
		// Same draw the exact RandomSelection selector would make.
		return candidates[stepRNG(rec).Intn(len(candidates))]
	case SelectorRandomesque:
		k := rec.RandomesqueK
		if k <= 0 {
			k = DefaultRandomesqueK
		}
		return s.pool.grid.TopK(stepRNG(rec), candidates, k, rec.Theta)
	default:
		return s.pool.grid.ArgMax(candidates, rec.Theta)
	}
}

// stepRNG is the randomized rules' RNG for rec's next step: the seed and
// administration count fully determine the draw, so a restarted session
// re-selects identically.
func stepRNG(rec *bank.AdaptiveSessionRecord) *rand.Rand {
	step := int64(len(rec.Administered) + 1)
	return rand.New(rand.NewSource(rec.Seed + step*0x9E3779B9))
}

// unusedRows lists the rows below n that are not in used, which is sorted
// and distinct.
func unusedRows(n int, used []int) []int {
	rows := make([]int, 0, n-len(used))
	for row := 0; row < n; row++ {
		if len(used) > 0 && used[0] == row {
			used = used[1:]
			continue
		}
		rows = append(rows, row)
	}
	return rows
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
	if s.rec.State != bank.AdaptiveStateActive {
		return nil, fmt.Errorf("%w: %s", ErrSessionFinished, s.ID)
	}
	return s.itemView(s.pool.problem(s.rec.PendingID)), nil
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
	if s.rec.State != bank.AdaptiveStateActive {
		return nil, fmt.Errorf("%w: %s", ErrSessionFinished, s.ID)
	}
	if problemID != s.rec.PendingID {
		return nil, fmt.Errorf("%w: got %s, pending %s", ErrItemNotPending, problemID, s.rec.PendingID)
	}
	// The pending item is always in the pool: it was selected from it, or
	// checked against it on restore.
	row := s.pool.rows[problemID]
	credit, gradable := s.pool.problems[row].Grade(response)
	if !gradable {
		// poolFor filters non-gradable styles, so this is defensive.
		return nil, fmt.Errorf("%w: %s", ErrNotGradable, problemID)
	}
	correct := credit >= 1-1e-9

	// The next record and response stream are built beside the session's.
	// Their appends may share the session's backing arrays but never change
	// the session's own lengths, so an error before the assignment below
	// leaves the session as it was: the learner's retry of the same
	// {problemId, response} still addresses the pending item, and a
	// crash+restart (which replays the persisted record) agrees with what
	// the client was told.
	responses := append(s.responses, adaptive.ResponseRecord{Params: s.pool.items[row].Params, Correct: correct})
	next := *s.rec
	next.Administered = append(next.Administered, problemID)
	next.Correct = append(next.Correct, correct)
	if next.Theta, next.SE, err = adaptive.EstimateEAP(responses); err != nil {
		return nil, err
	}
	n := len(next.Administered)
	switch {
	case next.TargetSE > 0 && next.SE <= next.TargetSE && n >= next.MinItems:
		finish(&next, StopSETarget)
	case n >= next.MaxItems:
		finish(&next, StopMaxItems)
	default:
		if p := s.selectNext(&next); p != nil {
			next.PendingID = p.ID
		} else {
			finish(&next, StopPoolExhausted)
		}
	}
	if err := e.persistSession(ctx, &next); err != nil {
		return nil, err
	}
	s.rec, s.responses = &next, responses
	// Publish events — and drain into the exam's ledger — only after the
	// record is durable, so a failed persist never leaves a phantom
	// finished record or a phantom event. Publishes detach from the request context
	// (cancelation must not reach subscribers) while keeping the trace span
	// so the bus.publish spans parent correctly.
	evctx := trace.Detach(ctx)
	e.bus.Publish(evctx, events.Event{
		Type: events.AdaptiveResponded, ExamID: s.ExamID, SessionID: s.ID,
		StudentID: s.StudentID, ProblemID: problemID, Correct: correct,
		Credit: credit, Answered: n, Total: next.MaxItems,
		Theta: next.Theta, SE: next.SE,
	})
	prog := &Progress{SessionID: s.ID, Theta: next.Theta, SE: next.SE, Administered: n}
	if next.State == bank.AdaptiveStateFinished {
		prog.Done, prog.StopReason = true, next.StopReason
		e.drain(evctx, s)
	} else {
		prog.Next = s.itemView(s.pool.problem(next.PendingID))
	}
	s.monitor.Capture(s.ID, e.monitorCapacity, e.now())
	return prog, nil
}

// finish marks rec finished for reason, with nothing pending.
func finish(rec *bank.AdaptiveSessionRecord, reason string) {
	rec.State, rec.StopReason, rec.PendingID = bank.AdaptiveStateFinished, reason, ""
}

// drain enters a sitting whose finished record has just persisted in its
// exam's ledger and announces it. The ledger keeps the session's own
// record, which is never modified once finished. Callers hold s.mu; the
// active-state check they made under it means each sitting drains once.
func (e *Engine) drain(ctx context.Context, s *Session) {
	s.ledger.finish(s.rec)
	e.bus.Publish(ctx, events.Event{
		Type: events.AdaptiveFinished, ExamID: s.ExamID, SessionID: s.ID,
		StudentID: s.StudentID, Answered: len(s.rec.Administered),
		Theta: s.rec.Theta, SE: s.rec.SE, StopReason: s.rec.StopReason,
	})
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
		next := *s.rec
		finish(&next, StopByCaller)
		if err := e.persistSession(ctx, &next); err != nil {
			return nil, err
		}
		s.rec = &next
		e.drain(trace.Detach(ctx), s)
		s.monitor.Capture(s.ID, e.monitorCapacity, e.now())
	}
	rec := s.rec
	return &Outcome{
		SessionID:    rec.ID,
		ExamID:       rec.ExamID,
		StudentID:    rec.StudentID,
		Theta:        rec.Theta,
		SE:           rec.SE,
		Administered: append([]string(nil), rec.Administered...),
		StopReason:   rec.StopReason,
	}, nil
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

// Snapshots returns a copy of the session's retained monitor snapshots in
// capture order (an empty slice, never nil, when capture is disabled).
func (e *Engine) Snapshots(sessionID string) ([]delivery.Snapshot, error) {
	s, err := e.lock(sessionID)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	return s.monitor.Snapshots(), nil
}

// restore rehydrates one persisted session into the registry. Finished
// sessions need no pool — they register for status queries with their
// persisted estimates, and their record (the stored one, which the session
// shares) enters the exam's ledger. Active sessions take the exam's pool
// as Start does and re-derive theta/SE from the response stream onto a
// copy of the record.
// Once the record is accepted, its start and hand-outs are counted on the
// ledger through the calls Start and selectNext make.
func (e *Engine) restore(rec *bank.AdaptiveSessionRecord) error {
	s := &Session{
		ID:        rec.ID,
		ExamID:    rec.ExamID,
		StudentID: rec.StudentID,
		rec:       rec,
	}
	if rec.State == bank.AdaptiveStateActive {
		pool, err := e.poolFor(rec.ExamID)
		if err != nil {
			return err
		}
		s.pool = pool
		for i, pid := range rec.Administered {
			row, ok := pool.rows[pid]
			if !ok {
				return fmt.Errorf("administered item %s no longer in pool", pid)
			}
			s.responses = append(s.responses, adaptive.ResponseRecord{
				Params: pool.items[row].Params, Correct: rec.Correct[i],
			})
		}
		if len(s.responses) > 0 {
			// The stored record is shared with every reader: re-derive
			// the estimate on the session's own copy.
			own := *rec
			if own.Theta, own.SE, err = adaptive.EstimateEAP(s.responses); err != nil {
				return err
			}
			s.rec = &own
		}
		if pool.problem(rec.PendingID) == nil {
			return fmt.Errorf("pending item %q not in pool", rec.PendingID)
		}
	}
	s.ledger = e.ledgerFor(rec.ExamID)
	s.ledger.start()
	for _, pid := range rec.Administered {
		s.ledger.handOut(pid)
	}
	if rec.PendingID != "" {
		s.ledger.handOut(rec.PendingID)
	}
	if rec.State != bank.AdaptiveStateActive {
		s.ledger.finish(rec)
	}
	// Keep new session IDs past the restored ones.
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
// Purged sittings stay in their exam's ledger (finished records, starts
// and hand-outs) for the rest of this process's lifetime, so Recalibrate
// and the exposure caps keep their input.
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
			purged++
		}
		s.mu.Unlock()
	}
	return purged, errors.Join(errs...)
}

// SessionIDs returns every registered session ID, sorted (admin views and
// tests).
func (e *Engine) SessionIDs() []string { return e.sessions.Keys() }
