package main

// Event-bus fan-out (experiment E22): two questions the live subsystem must
// answer before it is allowed near the delivery hot path.
//
//  1. Fan-out throughput: one emitter publishing to N subscribers — how many
//     deliveries/second does the bus sustain as the watcher count grows?
//  2. Emitter overhead: the full E18-style engine workload with the bus
//     disabled, attached-but-unwatched, and attached with subscribers.
//     Publish is fire-and-forget memory work, so the attached engine must
//     stay within noise of the disabled baseline — events off the hot path
//     is the design contract, and this measures it.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
)

// EventsResult is one measured bus configuration, serialized into the
// baseline file.
type EventsResult struct {
	Name        string `json:"name"`
	Subscribers int    `json:"subscribers"`
	Events      int    `json:"events"`
	// Deliveries counts events received across all subscribers (gap markers
	// excluded); under drop-oldest it may be below Events*Subscribers.
	Deliveries int     `json:"deliveries"`
	PerSec     float64 `json:"perSec"` // deliveries (or ops) per second
}

// measureFanOut publishes n events from one emitter to subs subscribers and
// reports aggregate delivery throughput.
func measureFanOut(subs, n int) EventsResult {
	bus := events.NewBus(events.Options{})
	defer bus.Close()
	var wg sync.WaitGroup
	delivered := make([]int, subs)
	for i := 0; i < subs; i++ {
		sub := bus.Subscribe(events.SubscribeOptions{Buffer: 4096})
		wg.Add(1)
		go func(i int, sub *events.Subscription) {
			defer wg.Done()
			defer sub.Close()
			var batch []events.Event
			for range sub.Ready() {
				batch = sub.Take(batch[:0])
				for _, e := range batch {
					// Drop-oldest never discards the newest push, so the
					// "done" sentinel always arrives: each subscriber drains
					// to the end of the stream, then exits.
					if e.ProblemID == "done" {
						return
					}
					if e.Type != events.TypeGap {
						delivered[i]++
					}
				}
			}
		}(i, sub)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		bus.Publish(context.Background(), events.Event{
			Type: events.ResponseSubmitted, ExamID: "fanout",
			SessionID: "sess", ProblemID: "q01", Correct: i%2 == 0,
		})
	}
	bus.Publish(context.Background(), events.Event{Type: events.ResponseSubmitted, ExamID: "fanout", ProblemID: "done"})
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, d := range delivered {
		total += d
	}
	return EventsResult{
		Name:        fmt.Sprintf("fan-out/%d-subscribers", subs),
		Subscribers: subs,
		Events:      n,
		Deliveries:  total,
		PerSec:      float64(total) / elapsed.Seconds(),
	}
}

// measureEmitterOverhead drives the E18 engine workload with the given bus
// arrangement and returns the engine-operation rate.
func measureEmitterOverhead(name string, workers int, attach func(*delivery.Engine) func()) (EventsResult, error) {
	store := bank.NewSharded(0)
	examID, err := throughputBank(store, 10)
	if err != nil {
		return EventsResult{}, err
	}
	eng := delivery.NewShardedEngine(store, nil, 0, delivery.DefaultSessionShards)
	cleanup := attach(eng)
	defer cleanup()

	sessions := 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sitting := 0; sitting < sessions; sitting++ {
				student := fmt.Sprintf("w%02d-s%03d", w, sitting)
				sess, err := eng.Start(context.Background(), examID, student, int64(w*1000+sitting))
				if err != nil {
					errs <- err
					return
				}
				for _, pid := range sess.Order {
					if err := eng.Answer(context.Background(), sess.ID, pid, "A"); err != nil {
						errs <- err
						return
					}
				}
				if _, err := eng.Finish(context.Background(), sess.ID); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return EventsResult{}, err
	}
	ops := workers * sessions * 12
	return EventsResult{
		Name:   name,
		Events: ops,
		PerSec: float64(ops) / elapsed.Seconds(),
	}, nil
}

// emitterConfigs returns the three engine arrangements E22 compares.
func emitterConfigs() []struct {
	name   string
	attach func(*delivery.Engine) func()
} {
	return []struct {
		name   string
		attach func(*delivery.Engine) func()
	}{
		{"engine/bus-disabled", func(*delivery.Engine) func() { return func() {} }},
		{"engine/bus-unwatched", func(eng *delivery.Engine) func() {
			bus := events.NewBus(events.Options{})
			eng.SetEventBus(bus)
			return bus.Close
		}},
		{"engine/bus-4-subscribers", func(eng *delivery.Engine) func() {
			bus := events.NewBus(events.Options{})
			eng.SetEventBus(bus)
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				sub := bus.Subscribe(events.SubscribeOptions{Buffer: 4096})
				wg.Add(1)
				go func(sub *events.Subscription) {
					defer wg.Done()
					var batch []events.Event
					for range sub.Ready() {
						batch = sub.Take(batch[:0])
					}
				}(sub)
			}
			return func() { bus.Close(); wg.Wait() }
		}},
	}
}

// measureEventsSuite is the -baseline entry for the events section.
func measureEventsSuite() ([]EventsResult, error) {
	var out []EventsResult
	for _, subs := range []int{1, 8, 64} {
		out = append(out, measureFanOut(subs, 50000))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for _, cfg := range emitterConfigs() {
		res, err := measureEmitterOverhead(cfg.name, workers, cfg.attach)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// runE22 prints the fan-out and emitter-overhead comparison.
func runE22(int64) error {
	fmt.Println("event fan-out, 1 emitter x 50k events:")
	for _, subs := range []int{1, 8, 64} {
		res := measureFanOut(subs, 50000)
		fmt.Printf("  %-28s %10.0f deliveries/s (%d/%d delivered)\n",
			res.Name, res.PerSec, res.Deliveries, res.Events*res.Subscribers)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	fmt.Printf("emitter overhead, %d workers x 20 sessions x 10 questions:\n", workers)
	var base float64
	for _, cfg := range emitterConfigs() {
		res, err := measureEmitterOverhead(cfg.name, workers, cfg.attach)
		if err != nil {
			return err
		}
		if base == 0 {
			base = res.PerSec
		}
		fmt.Printf("  %-28s %10.0f ops/s (%.2fx baseline)\n", res.Name, res.PerSec, res.PerSec/base)
	}
	fmt.Println("expected shape: fan-out scales with subscribers; attaching the bus costs the engine within noise of baseline")
	return nil
}
