// Corpus for the lockio analyzer: the package path tail "bank" puts it
// in scope.
package bank

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
)

type record struct{ N int }

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	f    *os.File
	sink interface{ Write(p []byte) (int, error) }
	buf  bytes.Buffer
	recs []record
	ch   chan record
}

func (s *store) flagged(r record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.Marshal(r) // want `json\.Marshal inside critical section of s\.mu`
	if err != nil {
		return err
	}
	if _, err := s.f.Write(b); err != nil { // want `File\.Write inside critical section`
		return err
	}
	if err := s.f.Sync(); err != nil { // want `File\.Sync inside critical section`
		return err
	}
	s.sink.Write(b) // want `interface-typed Write inside critical section`
	s.ch <- r       // want `blocking channel send inside critical section`
	return nil
}

func (s *store) flaggedRecv() record {
	s.mu.Lock()
	r := <-s.ch // want `blocking channel receive inside critical section`
	s.mu.Unlock()
	return r
}

func (s *store) flaggedRead() []byte {
	s.rw.RLock()
	defer s.rw.RUnlock()
	b, _ := json.Marshal(s.recs) // want `json\.Marshal inside critical section of s\.rw`
	return b
}

func (s *store) fine(r record) error {
	b, err := json.Marshal(r) // marshal outside the lock: the invariant itself
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.buf.Write(b) // concrete in-memory writer: legal
	select {
	case s.ch <- r: // non-blocking send: sanctioned idiom
	default:
	}
	s.mu.Unlock()
	_, werr := s.f.Write(b) // after the unlock: legal
	return werr
}

func (s *store) fineClosure() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The closure body runs after the section ends; not a finding.
	return func() { _ = s.f.Sync() }
}

func (s *store) allowed(r record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//assess:allow lockio: recovery path, cold by construction
	_, _ = json.Marshal(r)
}
