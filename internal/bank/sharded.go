package bank

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mineassess/internal/item"
	"mineassess/internal/shardmap"
)

// DefaultShards is the shard count NewSharded uses when given n <= 0.
const DefaultShards = 32

// Sharded is the in-memory bank backend: records are spread over N shards
// keyed by FNV-1a hash of their ID (shardmap.Index), each shard guarded by
// its own RWMutex, so writers to unrelated IDs never contend and readers
// proceed in parallel with each other. Cross-shard views (ProblemIDs,
// Search, Save) lock one shard at a time — there is no stop-the-world lock
// anywhere.
//
// Consistency note: operations touching a single ID are atomic. AddExam's
// referenced-problem validation spans shards and is checked without a
// global lock, so a problem deleted concurrently with AddExam may leave a
// dangling reference — the same window LMS replicas have in any
// distributed deployment. A dangling exam persists and reloads but is not
// servable: delivery.Engine.Start errors on the missing problem until it
// is restored or the exam record is replaced.
type Sharded struct {
	shards []bankShard
	// gen counts successful problem and exam writes (see Generation). A
	// write bumps it under its shard's write lock, after the change is in
	// place.
	gen atomic.Uint64
}

type bankShard struct {
	mu       sync.RWMutex
	problems map[string]*item.Problem
	exams    map[string]*ExamRecord
	history  map[string][]Revision
	adaptive map[string]*AdaptiveSessionRecord
}

// NewSharded returns an empty sharded store with n shards (DefaultShards
// when n <= 0).
func NewSharded(n int) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	s := &Sharded{shards: make([]bankShard, n)}
	for i := range s.shards {
		s.shards[i].problems = make(map[string]*item.Problem)
		s.shards[i].exams = make(map[string]*ExamRecord)
		s.shards[i].history = make(map[string][]Revision)
		s.shards[i].adaptive = make(map[string]*AdaptiveSessionRecord)
	}
	return s
}

func (s *Sharded) shard(id string) *bankShard {
	return &s.shards[shardmap.Index(id, len(s.shards))]
}

// AddProblem validates and stores a copy of the problem.
func (s *Sharded) AddProblem(p *item.Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	sh := s.shard(p.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.problems[p.ID]; dup {
		return fmt.Errorf("%w: %s", ErrProblemExists, p.ID)
	}
	sh.problems[p.ID] = p.Clone()
	s.gen.Add(1)
	return nil
}

// UpdateProblem replaces an existing problem, keeping the old revision.
func (s *Sharded) UpdateProblem(p *item.Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	sh := s.shard(p.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, ok := sh.problems[p.ID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrProblemNotFound, p.ID)
	}
	sh.history[p.ID] = append(sh.history[p.ID], Revision{
		Version: len(sh.history[p.ID]) + 1,
		Problem: old,
	})
	sh.problems[p.ID] = p.Clone()
	s.gen.Add(1)
	return nil
}

// Problem returns the stored problem.
func (s *Sharded) Problem(id string) (*item.Problem, error) {
	sh := s.shard(id)
	sh.mu.RLock()
	p, ok := sh.problems[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrProblemNotFound, id)
	}
	return p, nil
}

// DeleteProblem removes a problem and its history.
func (s *Sharded) DeleteProblem(id string) error {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.problems[id]; !ok {
		return fmt.Errorf("%w: %s", ErrProblemNotFound, id)
	}
	delete(sh.problems, id)
	delete(sh.history, id)
	s.gen.Add(1)
	return nil
}

// ProblemCount returns the number of stored problems.
func (s *Sharded) ProblemCount() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.problems)
		sh.mu.RUnlock()
	}
	return total
}

// ProblemIDs returns all problem IDs, sorted.
func (s *Sharded) ProblemIDs() []string {
	var ids []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.problems {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// Problems returns the identified problems, erroring on the first missing
// ID.
func (s *Sharded) Problems(ids []string) ([]*item.Problem, error) {
	out := make([]*item.Problem, 0, len(ids))
	for _, id := range ids {
		p, err := s.Problem(id)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// AddExam stores a copy of the exam record after checking that every
// referenced problem exists (see the type comment for the cross-shard
// consistency window).
func (s *Sharded) AddExam(e *ExamRecord) error {
	for _, pid := range e.ProblemIDs {
		if _, err := s.Problem(pid); err != nil {
			return fmt.Errorf("bank: exam %s references %w: %s", e.ID, ErrProblemNotFound, pid)
		}
	}
	return s.putExamUnchecked(e)
}

// putExamUnchecked stores the exam without reference validation — the
// insert core shared with AddExam, used directly by snapshot loading (see
// loadSnapshot).
func (s *Sharded) putExamUnchecked(e *ExamRecord) error {
	if strings.TrimSpace(e.ID) == "" {
		return errors.New("bank: exam ID must not be empty")
	}
	sh := s.shard(e.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.exams[e.ID]; dup {
		return fmt.Errorf("%w: %s", ErrExamExists, e.ID)
	}
	sh.exams[e.ID] = cloneExam(e)
	s.gen.Add(1)
	return nil
}

// UpdateExam replaces an existing exam record after the same cross-shard
// reference validation as AddExam (and with the same concurrent-delete
// window; see the type comment). Exam existence is checked before problem
// references, so an unknown exam reports ErrExamNotFound whatever it
// references.
func (s *Sharded) UpdateExam(e *ExamRecord) error {
	sh := s.shard(e.ID)
	sh.mu.RLock()
	_, exists := sh.exams[e.ID]
	sh.mu.RUnlock()
	if !exists {
		return fmt.Errorf("%w: %s", ErrExamNotFound, e.ID)
	}
	for _, pid := range e.ProblemIDs {
		if _, err := s.Problem(pid); err != nil {
			return fmt.Errorf("bank: exam %s references %w: %s", e.ID, ErrProblemNotFound, pid)
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.exams[e.ID]; !ok {
		return fmt.Errorf("%w: %s", ErrExamNotFound, e.ID)
	}
	sh.exams[e.ID] = cloneExam(e)
	s.gen.Add(1)
	return nil
}

// Exam returns the stored exam record.
func (s *Sharded) Exam(id string) (*ExamRecord, error) {
	sh := s.shard(id)
	sh.mu.RLock()
	e, ok := sh.exams[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrExamNotFound, id)
	}
	return e, nil
}

// DeleteExam removes an exam record.
func (s *Sharded) DeleteExam(id string) error {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.exams[id]; !ok {
		return fmt.Errorf("%w: %s", ErrExamNotFound, id)
	}
	delete(sh.exams, id)
	s.gen.Add(1)
	return nil
}

// ExamIDs returns all exam IDs, sorted.
func (s *Sharded) ExamIDs() []string {
	var ids []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.exams {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// PutAdaptiveSession stores a copy of an adaptive-session record, replacing
// any record with its ID.
func (s *Sharded) PutAdaptiveSession(rec *AdaptiveSessionRecord) error {
	if err := rec.validate(); err != nil {
		return err
	}
	sh := s.shard(rec.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.adaptive[rec.ID] = cloneAdaptive(rec)
	return nil
}

// AdaptiveSession returns the stored adaptive-session record.
func (s *Sharded) AdaptiveSession(id string) (*AdaptiveSessionRecord, error) {
	sh := s.shard(id)
	sh.mu.RLock()
	rec, ok := sh.adaptive[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrAdaptiveSessionNotFound, id)
	}
	return rec, nil
}

// DeleteAdaptiveSession removes an adaptive-session record.
func (s *Sharded) DeleteAdaptiveSession(id string) error {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.adaptive[id]; !ok {
		return fmt.Errorf("%w: %s", ErrAdaptiveSessionNotFound, id)
	}
	delete(sh.adaptive, id)
	return nil
}

// AdaptiveSessionIDs returns all adaptive-session IDs, sorted.
func (s *Sharded) AdaptiveSessionIDs() []string {
	var ids []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.adaptive {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// Search returns the matching problems ordered by ID for determinism.
func (s *Sharded) Search(q Query) []*item.Problem {
	var matched []*item.Problem
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, p := range sh.problems {
			if q.matches(p) {
				matched = append(matched, p)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].ID < matched[j].ID })
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	return matched
}

// Subjects returns the distinct subjects present in the bank, sorted.
func (s *Sharded) Subjects() []string {
	seen := make(map[string]struct{})
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, p := range sh.problems {
			if p.Subject != "" {
				seen[p.Subject] = struct{}{}
			}
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for subj := range seen {
		out = append(out, subj)
	}
	sort.Strings(out)
	return out
}

// CountByStyle tallies stored problems per style.
func (s *Sharded) CountByStyle() map[item.Style]int {
	out := make(map[item.Style]int)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, p := range sh.problems {
			out[p.Style]++
		}
		sh.mu.RUnlock()
	}
	return out
}

// History returns a problem's superseded versions, oldest first.
func (s *Sharded) History(id string) []Revision {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return append([]Revision(nil), sh.history[id]...)
}

// Rollback restores the most recent superseded version of a problem,
// pushing the current version onto the history.
func (s *Sharded) Rollback(id string) (*item.Problem, error) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.problems[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrProblemNotFound, id)
	}
	revs := sh.history[id]
	if len(revs) == 0 {
		return nil, fmt.Errorf("bank: problem %s has no history to roll back", id)
	}
	last := revs[len(revs)-1]
	sh.history[id] = append(revs[:len(revs)-1], Revision{
		Version: last.Version + 1,
		Problem: cur,
	})
	sh.problems[id] = last.Problem
	s.gen.Add(1)
	return last.Problem, nil
}

// Version returns the problem's current version number (1 for never
// updated).
func (s *Sharded) Version(id string) int {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.history[id]) + 1
}

// Generation reports how many problem and exam writes have succeeded.
func (s *Sharded) Generation() uint64 { return s.gen.Load() }

// Save writes the whole store to path as one JSON bank file.
func (s *Sharded) Save(path string) error {
	return WriteSnapshot(s, path)
}
