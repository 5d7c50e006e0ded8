// Stub of mineassess/internal/events: the analyzer matches the Bus type
// by package-path tail, so this corpus package stands in for the real one.
package events

import "context"

// Type labels an event.
type Type string

// Event is the published payload.
type Event struct {
	Type Type
	Seq  uint64
}

// Bus fans events out to subscribers.
type Bus struct{ subs []chan Event }

// Publish never blocks; the analyzer polices its call sites, not its body.
func (b *Bus) Publish(ctx context.Context, e Event) {
	for _, ch := range b.subs {
		select {
		case ch <- e:
		default:
		}
	}
}
