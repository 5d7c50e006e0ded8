package httpapi

import (
	"math"
	"strconv"
	"sync"
	"time"
)

// RateLimiter is a per-key token bucket: each learner gets Burst tokens that
// refill at Rate per second. It exists so a single runaway SCO or scripted
// client cannot monopolize the delivery engine during an exam.
type RateLimiter struct {
	rate  float64 // tokens added per second
	burst float64
	now   func() time.Time

	mu        sync.Mutex
	buckets   map[string]*bucket
	lastSweep time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds limiter memory: when exceeded, fully refilled (idle)
// buckets are swept. Active learners are never evicted — a full bucket is
// indistinguishable from a brand-new one.
const maxBuckets = 8192

// DefaultBucketTTL is how long an untouched bucket survives before the
// periodic sweep reclaims it. Without a TTL the map grows one entry per
// learner/IP ever seen — millions of learners over a server's lifetime
// would mean millions of entries retained for a handful of active ones.
const DefaultBucketTTL = 10 * time.Minute

// NewRateLimiter builds a limiter allowing rate requests/second with the
// given burst per key; buckets untouched for DefaultBucketTTL are evicted
// by an amortized sweep. rate <= 0 returns nil, which disables limiting.
// now may be nil for wall-clock time.
func NewRateLimiter(rate float64, burst int, now func() time.Time) *RateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	l := &RateLimiter{
		rate:    rate,
		burst:   float64(burst),
		now:     now,
		buckets: make(map[string]*bucket),
	}
	l.lastSweep = now()
	return l
}

// Len reports the current bucket count (tests and metrics).
func (l *RateLimiter) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// Allow reports whether the key may proceed, consuming one token if so.
func (l *RateLimiter) Allow(key string) bool {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	// Amortized TTL sweep: at most one O(n) pass per TTL window, so the
	// per-request cost stays O(1) while idle buckets cannot outlive ~2x TTL.
	if now.Sub(l.lastSweep) >= DefaultBucketTTL {
		l.evictIdleLocked(now)
		l.lastSweep = now
	}
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= maxBuckets {
			l.sweepLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// retryAfter is the Retry-After header value for a request the limiter
// refused: the whole seconds one token takes to refill, at least 1.
func (l *RateLimiter) retryAfter() string {
	return strconv.Itoa(max(1, int(math.Ceil(1/l.rate))))
}

// evictIdleLocked drops buckets that have not been touched for the TTL.
// Idleness is judged on b.last alone — a bucket still paying off a token
// deficit but receiving traffic keeps its state (an active bucket is never
// reset), while an abandoned one is reclaimed no matter how full it is.
// Callers hold mu.
func (l *RateLimiter) evictIdleLocked(now time.Time) {
	for key, b := range l.buckets {
		if now.Sub(b.last) >= DefaultBucketTTL {
			delete(l.buckets, key)
		}
	}
}

// sweepLocked drops buckets that have refilled completely, then — only if
// an adversarial flood of never-full buckets left the map still at the cap
// — evicts arbitrary entries down to half so maxBuckets is a hard bound and
// the O(n) sweep amortizes over the next maxBuckets/2 inserts. An evicted
// active key restarts with a full burst, which is the lesser harm next to
// unbounded memory. Callers hold mu.
func (l *RateLimiter) sweepLocked(now time.Time) {
	for key, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, key)
		}
	}
	if len(l.buckets) < maxBuckets {
		return
	}
	for key := range l.buckets {
		if len(l.buckets) <= maxBuckets/2 {
			break
		}
		delete(l.buckets, key)
	}
}
