package delivery

import (
	"context"
	"testing"
	"time"
)

func TestMonitorCaptureAndQuery(t *testing.T) {
	m := NewMonitor(3)
	if !m.Enabled() {
		t.Fatal("monitor should be enabled")
	}
	at := time.Date(2004, 3, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		m.Capture("sess-1", at.Add(time.Duration(i)*time.Minute))
	}
	snaps := m.Snapshots("sess-1")
	if len(snaps) != 3 {
		t.Fatalf("retained = %d, want 3 (ring capacity)", len(snaps))
	}
	// Oldest two fell off: sequences 3,4,5 remain.
	if snaps[0].Seq != 3 || snaps[2].Seq != 5 {
		t.Errorf("sequences = %d..%d, want 3..5", snaps[0].Seq, snaps[2].Seq)
	}
	if m.Captured("sess-1") != 5 {
		t.Errorf("captured = %d, want 5", m.Captured("sess-1"))
	}
	if got := m.Snapshots("unknown"); len(got) != 0 {
		t.Errorf("unknown session snapshots = %v", got)
	}
}

func TestMonitorDisabled(t *testing.T) {
	m := NewMonitor(0)
	if m.Enabled() {
		t.Fatal("capacity 0 should disable")
	}
	m.Capture("sess-1", time.Now())
	if len(m.Snapshots("sess-1")) != 0 {
		t.Error("disabled monitor must not retain snapshots")
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
	m := NewMonitor(4)
	m.Capture("s", time.Now())
	snaps := m.Snapshots("s")
	snaps[0].Seq = 999
	if m.Snapshots("s")[0].Seq == 999 {
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
	if got := eng.Monitor().Captured(sess.ID); got != 2 {
		t.Errorf("captures = %d, want 2 (start + answer)", got)
	}
}
