// Package shardmap is the string-keyed sharded map behind the session
// registries and the bank's sharded backend: keys hash with FNV-1a onto a
// fixed set of shards, each guarded by its own RWMutex, so operations on
// unrelated keys never contend and lookups proceed in parallel. Cross-shard
// views (Len, Keys, Values) lock one shard at a time — there is no
// stop-the-world lock.
package shardmap

import (
	"sort"
	"sync"
)

// Index maps key onto one of n shards with FNV-1a. Every sharded structure
// in the repo uses it, so hot-key behaviour is predictable across layers.
// It is inlined rather than built on hash/fnv because it runs on every
// learner operation and the hash.Hash32 interface would allocate per call.
func Index(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Map is a sharded map from string keys to V. The shard locks guard only
// the map itself; values that carry mutable state synchronize it
// themselves. Build with New.
type Map[V any] struct {
	shards []shard[V]
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// New returns an empty map with n shards; n must be positive.
func New[V any](n int) *Map[V] {
	m := &Map[V]{shards: make([]shard[V], n)}
	for i := range m.shards {
		m.shards[i].m = make(map[string]V)
	}
	return m
}

func (m *Map[V]) shard(key string) *shard[V] {
	return &m.shards[Index(key, len(m.shards))]
}

// Get returns the value stored under key.
func (m *Map[V]) Get(key string) (V, bool) {
	sh := m.shard(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

// Put stores v under key, replacing any previous value.
func (m *Map[V]) Put(key string, v V) {
	sh := m.shard(key)
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
}

// Delete removes key.
func (m *Map[V]) Delete(key string) {
	sh := m.shard(key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// Len returns the number of stored keys.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Keys returns every stored key, sorted. Keys added or removed during the
// scan may or may not appear — the guarantee any scan without a global
// lock can give.
func (m *Map[V]) Keys() []string {
	var keys []string
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for k := range sh.m {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// Values returns every stored value in no particular order, with the same
// scan guarantee as Keys.
func (m *Map[V]) Values() []V {
	var vals []V
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, v := range sh.m {
			vals = append(vals, v)
		}
		sh.mu.RUnlock()
	}
	return vals
}
