package events

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// fanOutAllocs are the recorded heap allocations per delivery of the
// fan-out path (publish, replay rings, subscriber queues, Take into a
// reused buffer) by subscriber count. A reading may exceed its base by 20%
// plus half an allocation of noise.
var fanOutAllocs = []struct {
	subs int
	base float64
}{{1, 1.02}, {16, 0.063}, {64, 0.016}}

func allocCeiling(base float64) float64 { return base*1.2 + 0.5 }

// TestFanOutAllocs pins the allocations per delivery at 1, 16 and 64
// subscribers: the publish-side cost (one shared encoding cell per event)
// amortizes across the subscribers that receive it.
func TestFanOutAllocs(t *testing.T) {
	for _, c := range fanOutAllocs {
		t.Run(fmt.Sprintf("%d-subscribers", c.subs), func(t *testing.T) {
			got := fanOutAllocsPerDelivery(c.subs)
			ceiling := allocCeiling(c.base)
			t.Logf("%d subscribers: %.3f allocs/delivery (ceiling %.2f)", c.subs, got, ceiling)
			if got > ceiling {
				t.Errorf("fan-out to %d subscribers allocates %.3f per delivery, ceiling %.2f", c.subs, got, ceiling)
			}
		})
	}
}

// fanOutAllocsPerDelivery publishes rounds of events to subs readers that
// drain through Ready and Take, and returns the heap allocations of one
// round, every goroutine included, divided by its deliveries. A first round
// warms the rings, the queues and the readers' buffers. A round never
// outgrows a queue (each reader drains all of it before the next), so no
// event is dropped.
func fanOutAllocsPerDelivery(subs int) float64 {
	const perRound = 1024
	bus := NewBus(Options{})
	defer bus.Close()
	done := make(chan struct{}, subs)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		sub := bus.Subscribe(SubscribeOptions{Buffer: 8192})
		wg.Add(1)
		go func() {
			defer wg.Done()
			var batch []Event
			for range sub.Ready() {
				batch = sub.Take(batch[:0])
				for _, e := range batch {
					if e.ProblemID == "done" {
						done <- struct{}{}
					}
				}
			}
		}()
	}
	ctx := context.Background()
	round := func() {
		for i := 0; i < perRound; i++ {
			bus.Publish(ctx, Event{Type: ResponseSubmitted, ExamID: "alloc",
				SessionID: "sess", ProblemID: "q01", Correct: i%2 == 0})
		}
		bus.Publish(ctx, Event{Type: ResponseSubmitted, ExamID: "alloc", ProblemID: "done"})
		for i := 0; i < subs; i++ {
			<-done
		}
	}
	allocs := testing.AllocsPerRun(1, round)
	bus.Close()
	wg.Wait()
	return allocs / float64(subs*(perRound+1))
}
