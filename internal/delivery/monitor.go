package delivery

import (
	"hash/fnv"
	"sync"
	"time"

	"mineassess/internal/shardmap"
)

// Snapshot is one captured "client picture" event. The paper's monitor
// captures webcam pictures during the exam; here the frame payload is
// simulated by a deterministic hash (what matters to the LMS plumbing is the
// capture/record/query path, not pixels).
type Snapshot struct {
	SessionID string    `json:"sessionId"`
	Seq       int       `json:"seq"`
	At        time.Time `json:"at"`
	// FrameHash stands in for the captured frame's content digest.
	FrameHash uint64 `json:"frameHash"`
}

// monitorShards spreads capture traffic: every Answer triggers a Capture, so
// a single monitor mutex would re-serialize the sessions the sharded engine
// just decoupled.
const monitorShards = 16

// Monitor is the on-line exam monitor subsystem: a bounded per-session ring
// of snapshots an administrator can query while exams run. Rings are spread
// over shards keyed by session ID so captures from unrelated sessions do not
// contend.
type Monitor struct {
	capacity int
	shards   []monitorShard
}

type monitorShard struct {
	mu    sync.Mutex
	rings map[string][]Snapshot
	seqs  map[string]int
}

// NewMonitor builds a monitor keeping up to capacity snapshots per session;
// capacity <= 0 disables capture.
func NewMonitor(capacity int) *Monitor {
	m := &Monitor{
		capacity: capacity,
		shards:   make([]monitorShard, monitorShards),
	}
	for i := range m.shards {
		m.shards[i].rings = make(map[string][]Snapshot)
		m.shards[i].seqs = make(map[string]int)
	}
	return m
}

// Enabled reports whether capture is active.
func (m *Monitor) Enabled() bool {
	return m.capacity > 0
}

func (m *Monitor) shard(sessionID string) *monitorShard {
	return &m.shards[shardmap.Index(sessionID, len(m.shards))]
}

// Capture records one snapshot for the session; oldest entries fall off the
// ring when the capacity is reached.
func (m *Monitor) Capture(sessionID string, at time.Time) {
	if m.capacity <= 0 {
		return
	}
	sh := m.shard(sessionID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.seqs[sessionID]++
	seq := sh.seqs[sessionID]
	snap := Snapshot{
		SessionID: sessionID,
		Seq:       seq,
		At:        at,
		FrameHash: frameHash(sessionID, seq),
	}
	ring := append(sh.rings[sessionID], snap)
	if len(ring) > m.capacity {
		ring = ring[len(ring)-m.capacity:]
	}
	sh.rings[sessionID] = ring
}

// Snapshots returns a copy of the session's retained snapshots in capture
// order.
func (m *Monitor) Snapshots(sessionID string) []Snapshot {
	sh := m.shard(sessionID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ring := sh.rings[sessionID]
	out := make([]Snapshot, len(ring))
	copy(out, ring)
	return out
}

// Forget drops a session's ring and capture counter — retention passes
// call this when a session is purged so monitor memory does not scale
// with lifetime session count.
func (m *Monitor) Forget(sessionID string) {
	sh := m.shard(sessionID)
	sh.mu.Lock()
	delete(sh.rings, sessionID)
	delete(sh.seqs, sessionID)
	sh.mu.Unlock()
}

// Captured returns the total number of captures ever taken for the session
// (including ones that have fallen off the ring).
func (m *Monitor) Captured(sessionID string) int {
	sh := m.shard(sessionID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.seqs[sessionID]
}

// frameHash simulates a frame digest deterministically from identity and
// sequence so tests and replays are stable.
func frameHash(sessionID string, seq int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(sessionID))
	var b [4]byte
	b[0] = byte(seq)
	b[1] = byte(seq >> 8)
	b[2] = byte(seq >> 16)
	b[3] = byte(seq >> 24)
	_, _ = h.Write(b[:])
	return h.Sum64()
}
