package delivery

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func TestMonitorCaptureAndQuery(t *testing.T) {
	var m Monitor
	at := time.Date(2004, 3, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		m.Capture("sess-1", 3, at.Add(time.Duration(i)*time.Minute))
	}
	snaps := m.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("retained = %d, want 3 (ring capacity)", len(snaps))
	}
	// Oldest two fell off: sequences 3,4,5 remain.
	for i, s := range snaps {
		if s.Seq != i+3 || s.SessionID != "sess-1" || !s.At.Equal(at.Add(time.Duration(i+2)*time.Minute)) {
			t.Errorf("snapshot %d = %+v, want seq %d", i, s, i+3)
		}
		if s.FrameHash != frameHash("sess-1", s.Seq) {
			t.Errorf("snapshot %d frame hash %x, want frameHash(sess-1, %d)", i, s.FrameHash, s.Seq)
		}
	}
}

// TestMonitorDisabled: capacity 0 captures nothing, and the empty ring
// reads as a non-nil slice so the HTTP body is [] rather than null.
func TestMonitorDisabled(t *testing.T) {
	var m Monitor
	m.Capture("sess-1", 0, time.Now())
	snaps := m.Snapshots()
	if snaps == nil || len(snaps) != 0 {
		t.Fatalf("disabled monitor snapshots = %#v, want an empty non-nil slice", snaps)
	}
	raw, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "[]" {
		t.Errorf("empty ring encodes as %s, want []", raw)
	}
}

func TestMonitorFrameHashDeterministic(t *testing.T) {
	a := frameHash("sess-1", 1)
	b := frameHash("sess-1", 1)
	c := frameHash("sess-1", 2)
	d := frameHash("sess-2", 1)
	if a != b {
		t.Error("same identity must hash identically")
	}
	if a == c || a == d {
		t.Error("different identities should hash differently")
	}
}

func TestMonitorSnapshotsAreCopies(t *testing.T) {
	var m Monitor
	m.Capture("s", 4, time.Now())
	snaps := m.Snapshots()
	snaps[0].Seq = 999
	if m.Snapshots()[0].Seq == 999 {
		t.Error("Snapshots must return a copy")
	}
}

func TestEngineCapturesOnStartAndAnswer(t *testing.T) {
	store, examID := examFixture(t, false)
	clock := newFakeClock()
	eng := NewEngine(store, clock.Now, 8)
	sess, err := eng.Start(context.Background(), examID, "alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Answer(context.Background(), sess.ID, "q1", "A"); err != nil {
		t.Fatal(err)
	}
	snaps, err := eng.Snapshots(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Seq != 1 || snaps[1].Seq != 2 {
		t.Errorf("snapshots = %+v, want sequences 1, 2 (start + answer)", snaps)
	}
}

// TestEngineSnapshotsRingBound: every answer captures with the next
// sequence number, the ring keeps only the newest monitorCapacity, and an
// unknown session is ErrSessionNotFound.
func TestEngineSnapshotsRingBound(t *testing.T) {
	store, examID := examFixture(t, false)
	eng := NewEngine(store, newFakeClock().Now, 3)
	sess, err := eng.Start(context.Background(), examID, "alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	for n, pid := range sess.Order {
		if err := eng.Answer(context.Background(), sess.ID, pid, "A"); err != nil {
			t.Fatal(err)
		}
		snaps, err := eng.Snapshots(sess.ID)
		if err != nil {
			t.Fatal(err)
		}
		captures := n + 2 // start + answers so far
		want := min(captures, 3)
		if len(snaps) != want {
			t.Fatalf("after %d captures: %d retained, want %d", captures, len(snaps), want)
		}
		for i, s := range snaps {
			if s.Seq != captures-want+1+i {
				t.Fatalf("after %d captures: seqs %+v, want %d..%d", captures, snaps, captures-want+1, captures)
			}
		}
	}
	if _, err := eng.Snapshots("sess-999999"); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("unknown session: err = %v, want ErrSessionNotFound", err)
	}
}
