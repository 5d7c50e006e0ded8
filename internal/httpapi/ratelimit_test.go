package httpapi

// TTL-eviction suite for the per-key token buckets: a server that sees
// millions of learner IDs and IPs over its lifetime must not retain a
// bucket for each of them forever, and the sweep must never penalize a key
// that is still active.

import (
	"fmt"
	"testing"
)

func TestRateLimiterEvictsIdleBuckets(t *testing.T) {
	clock := newFakeClock()
	// Negligible refill over the test horizon so token state is readable.
	l := NewRateLimiter(0.0001, 5, clock.Now)

	l.Allow("idle-1")
	l.Allow("idle-2")
	l.Allow("active")
	if got := l.Len(); got != 3 {
		t.Fatalf("bucket count = %d, want 3", got)
	}

	// The active key keeps calling within the TTL; the idle keys never
	// return. Advancing past the TTL makes an Allow trigger the sweep.
	for i := 0; i < 4; i++ {
		clock.Advance(DefaultBucketTTL / 2)
		l.Allow("active")
	}
	if got := l.Len(); got != 1 {
		t.Fatalf("after sweep: bucket count = %d, want 1 (idle buckets must be evicted)", got)
	}
	l.mu.Lock()
	_, ok := l.buckets["active"]
	l.mu.Unlock()
	if !ok {
		t.Fatal("active bucket was evicted")
	}
}

// TestRateLimiterActiveBucketNeverReset: surviving a sweep must preserve a
// bucket's token deficit — eviction-and-recreate would hand an active
// abuser a fresh burst every TTL.
func TestRateLimiterActiveBucketNeverReset(t *testing.T) {
	clock := newFakeClock()
	l := NewRateLimiter(0.0001, 5, clock.Now)

	// Exhaust the burst.
	for i := 0; i < 5; i++ {
		if !l.Allow("abuser") {
			t.Fatalf("request %d within burst denied", i+1)
		}
	}
	if l.Allow("abuser") {
		t.Fatal("burst not exhausted")
	}

	// Stay active across several sweep windows (idle keys created alongside
	// prove sweeps really ran).
	step := DefaultBucketTTL * 6 / 10
	for i := 0; i < 6; i++ {
		l.Allow(fmt.Sprintf("bystander-%d", i))
		clock.Advance(step)
		if l.Allow("abuser") {
			// Six steps of 6 minutes at 0.0001/s refill 0.216 tokens — an
			// allow here means the bucket was reset to a full burst.
			t.Fatalf("drained bucket was reset at step %d", i)
		}
	}
	if got := l.Len(); got >= 7 {
		t.Fatalf("bystander buckets not swept: %d remain", got)
	}
}

// TestRateLimiterDefaultTTLWired: the standard constructor applies
// DefaultBucketTTL, so production servers get eviction without opting in.
func TestRateLimiterDefaultTTLWired(t *testing.T) {
	clock := newFakeClock()
	l := NewRateLimiter(0.0001, 1, clock.Now)
	l.Allow("idle")
	clock.Advance(2 * DefaultBucketTTL)
	l.Allow("active")
	if got := l.Len(); got != 1 {
		t.Fatalf("default-TTL limiter kept %d buckets, want 1", got)
	}
}
