package delivery

import (
	"hash/fnv"
	"time"
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

// Monitor is the on-line exam monitor of one session: a bounded ring of
// the snapshots an administrator can query while the exam runs. It is a
// field of the session it watches (delivery.Session, catdelivery.Session),
// guarded by that session's lock and freed with it; it has no lock of its
// own. The zero value is an empty ring.
type Monitor struct {
	ring []Snapshot
	seq  int // captures ever taken, including ones fallen off the ring
}

// Capture records one snapshot for the session; the oldest entries fall
// off the ring once it holds capacity snapshots. capacity <= 0 disables
// capture.
func (m *Monitor) Capture(sessionID string, capacity int, at time.Time) {
	if capacity <= 0 {
		return
	}
	m.seq++
	m.ring = append(m.ring, Snapshot{
		SessionID: sessionID,
		Seq:       m.seq,
		At:        at,
		FrameHash: frameHash(sessionID, m.seq),
	})
	if len(m.ring) > capacity {
		m.ring = m.ring[len(m.ring)-capacity:]
	}
}

// Snapshots returns a copy of the retained snapshots in capture order;
// an empty ring is an empty, non-nil slice (JSON [], never null).
func (m *Monitor) Snapshots() []Snapshot {
	out := make([]Snapshot, len(m.ring))
	copy(out, m.ring)
	return out
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
