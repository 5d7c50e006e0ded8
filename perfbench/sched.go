package main

import (
	"container/heap"
	"context"
	"errors"
	"math/rand"
	"sort"
	"time"

	"mineassess/pkg/client"
)

// sample is one request as the generator saw it. Latency runs from due, the
// time the schedule said to send it, so time spent waiting for a busy
// connection or a stalled server counts. The one exception is the
// generator's own timer: a request the loop slept for is timed from when the
// timer let it go, since the runtime's timers fire up to a few milliseconds
// late (epoll's millisecond timeout) and that wait is the generator's, not
// the server's. The timer's lateness is reported on its own.
type sample struct {
	route string
	due   time.Time
	sent  time.Time
	done  time.Time
	// slept marks a request the connection was free to send early, so the
	// loop slept until its due time: its sent-due gap is the generator's own
	// timer lateness rather than a wait imposed by the server.
	slept bool
	err   error
}

func (s sample) latency() time.Duration {
	if s.slept {
		return s.done.Sub(s.sent)
	}
	return s.done.Sub(s.due)
}

func (s sample) lateness() time.Duration { return s.sent.Sub(s.due) }

// answered reports whether the server produced a response (any status):
// transport failures never reach the server's request counters.
func (s sample) answered() bool {
	var apiErr *client.APIError
	return s.err == nil || errors.As(s.err, &apiErr)
}

// user is one learner's scripted sitting. dues holds the planned offset of
// each request from the window start; step sends request i and reports
// whether another follows.
type user struct {
	dues []time.Duration
	step func(i int) (route string, more bool, err error)
}

// arrivals draws n arrival offsets of a Poisson process over [0, span): given
// its count, a Poisson process places its arrivals as sorted uniform points.
// Fixing the count keeps every run's offered load identical across seeds.
func arrivals(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dueTimes plans a sitting of steps requests starting at arrival, each
// after an exponential think time of the given mean.
func dueTimes(rng *rand.Rand, arrival time.Duration, steps int, think time.Duration) []time.Duration {
	out := make([]time.Duration, steps)
	t := arrival
	for i := range out {
		out[i] = t
		t += time.Duration(rng.ExpFloat64() * float64(think))
	}
	return out
}

// pending is a user's next request in a connection's queue.
type pending struct {
	due  time.Time
	u    *user
	step int
	seq  int // tie-break: earlier users first
}

type queue []*pending

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	if !q[i].due.Equal(q[j].due) {
		return q[i].due.Before(q[j].due)
	}
	return q[i].seq < q[j].seq
}
func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)   { *q = append(*q, x.(*pending)) }
func (q *queue) Pop() any {
	old := *q
	p := old[len(old)-1]
	*q = old[:len(old)-1]
	return p
}

// openLoop drives users over one connection in due-time order. The schedule
// is fixed before the first request and never thins out: a slow server makes
// requests late (and raises their latency) but every planned request is
// still sent. A request waits only for its due time, the connection, and its
// user's previous request; a failed request ends that user's sitting, and a
// user still wanting more after its last planned request is an error.
func openLoop(ctx context.Context, start time.Time, users []*user) []sample {
	q := make(queue, 0, len(users))
	for i, u := range users {
		q = append(q, &pending{due: start.Add(u.dues[0]), u: u, seq: i})
	}
	heap.Init(&q)
	var out []sample
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for q.Len() > 0 {
		p := heap.Pop(&q).(*pending)
		slept := false
		if d := time.Until(p.due); d > 0 {
			slept = true
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return out
			}
		}
		s := sample{due: p.due, sent: time.Now(), slept: slept}
		route, more, err := p.u.step(p.step)
		s.route, s.done, s.err = route, time.Now(), err
		if err == nil && more && p.step+1 >= len(p.u.dues) {
			s.err = errors.New("sitting ran past its planned requests")
		}
		out = append(out, s)
		if s.err == nil && more {
			p.step++
			p.due = start.Add(p.u.dues[p.step])
			heap.Push(&q, p)
		}
	}
	return out
}
