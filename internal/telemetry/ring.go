package telemetry

import (
	"sync"
	"time"
)

// Event kinds recorded in the ring buffer.
const (
	KindWatchdogTrip    = "watchdog-trip"
	KindGateEscape      = "gate-escape"
	KindBudgetExhausted = "retry-budget-exhausted"
	KindContextCanceled = "context-canceled"
)

// Event is one entry of the bounded event ring: a rare, diagnostic runtime
// occurrence (watchdog trip, gate escape, abandoned transaction) with
// enough context to answer "what was the system doing just before".
type Event struct {
	// Seq is the event's process-order sequence number within its ring;
	// gaps after a wrap reveal how many events were overwritten.
	Seq uint64 `json:"seq"`

	// At is the wall-clock time the event was recorded.
	At time.Time `json:"at"`

	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`

	// State is the guidance automaton state key current at the event, or
	// empty when no state applies (engine-level events).
	State string `json:"state,omitempty"`

	// Detail is a human-readable elaboration (e.g. a watchdog trip reason).
	Detail string `json:"detail,omitempty"`
}

// DefaultRingCapacity is the event ring size used by NewMetrics.
const DefaultRingCapacity = 256

// Ring is a fixed-capacity, overwrite-oldest event buffer, safe for
// concurrent use. Recording is mutex-guarded: ring events are rare (trips,
// escapes, abandonments), so a lock costs nothing measurable and keeps the
// overwrite arithmetic trivially correct.
type Ring struct {
	mu  sync.Mutex
	buf []Event
	seq uint64
}

// NewRing returns a ring holding the most recent n events (n <= 0 selects
// DefaultRingCapacity).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingCapacity
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Record appends an event, overwriting the oldest once full. Nil-safe.
func (r *Ring) Record(kind, state, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev := Event{Seq: r.seq, At: time.Now(), Kind: kind, State: state, Detail: detail}
	r.seq++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[ev.Seq%uint64(cap(r.buf))] = ev
	}
	r.mu.Unlock()
}

// Snapshot returns the buffered events oldest-first. Nil-safe.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		out = append(out, r.buf...)
		return out
	}
	// Full ring: oldest entry sits at seq % cap.
	start := int(r.seq % uint64(cap(r.buf)))
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// reset discards all buffered events and restarts the sequence.
func (r *Ring) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.seq = 0
	r.mu.Unlock()
}
