package obs

import "time"

// The span clock: the wall time captured once at start-up plus the monotonic
// time elapsed since. A stamp costs one monotonic read, about half of
// time.Now's wall-and-monotonic pair, and stamps never go backwards.
var (
	clockBase     = time.Now()
	clockBaseUnix = clockBase.UnixNano()
)

// Now returns the span clock in unix nanoseconds. Every span stamp — Begin,
// event boundaries, Finish — is a reading of it.
func Now() int64 { return clockBaseUnix + int64(time.Since(clockBase)) }

// MaxEvents bounds a span's inline timeline. A request that retries more
// than the array holds keeps its totals exact and drops the oldest retry
// events (Truncated is set) — attribution degrades gracefully instead of
// allocating.
const MaxEvents = 32

// Event is one packed timeline entry: 12 bytes, recorded by value into the
// span's inline array.
type Event struct {
	Phase   Phase
	Cause   Cause
	Attempt uint16
	StartNs uint32 // offset from Span.Begin, ns (saturating)
	DurNs   uint32 // ns (saturating)
}

// Span is one request's (or batch sub-transaction's) recorded timeline.
// It is a plain value: workers keep per-shard scratch spans and copy them
// into retention structures wholesale, so no part of it may hold pointers.
type Span struct {
	ID        uint32 // protocol request ID of the first op in the batch
	Op        uint8  // protocol op kind
	Shard     uint8  // home shard of this sub-transaction
	Worker    uint8  // worker (STM thread) that executed it
	Forced    bool   // the client set the protocol trace-request bit
	Truncated bool   // more events occurred than MaxEvents holds
	Ops       uint16 // operations coalesced into this sub-transaction
	Attempts  uint16 // STM attempts (1 = first try committed)
	Cause     Cause  // terminal cause (CauseNone = success)
	Begin     int64  // span clock (Now), unix nanos
	TotalNs   uint32 // Begin → Finish, ns (saturating)

	n  uint16
	ev [MaxEvents]Event
}

// sat32 clamps a nanosecond count into a uint32 (~4.29s); spans longer
// than that saturate rather than wrap.
func sat32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > 0xFFFFFFFF {
		return 0xFFFFFFFF
	}
	return uint32(v)
}

// Start (re)initializes the span for a new request. The event array is not
// cleared — entries past n are unreachable through Events — so restarting a
// scratch span costs a handful of stores, not a 400-byte memclear. Nil-safe.
func (s *Span) Start(id uint32, op, shard, worker uint8, ops int, forced bool, begin int64) {
	if s == nil {
		return
	}
	s.ID = id
	s.Op = op
	s.Shard = shard
	s.Worker = worker
	s.Forced = forced
	s.Truncated = false
	s.Ops = uint16(ops)
	s.Attempts = 0
	s.Cause = CauseNone
	s.Begin = begin
	s.TotalNs = 0
	s.n = 0
}

// Add records one event with an absolute start time (unix nanos) and a
// duration. Nil-safe; never allocates. When the inline array is full, the
// oldest PhaseRetry event is evicted (retries are the only unbounded
// phase); if none exists the event is dropped and Truncated is set.
func (s *Span) Add(ph Phase, cause Cause, attempt int, startUnixNs, durNs int64) {
	if s == nil {
		return
	}
	e := Event{
		Phase:   ph,
		Cause:   cause,
		Attempt: uint16(attempt),
		StartNs: sat32(startUnixNs - s.Begin),
		DurNs:   sat32(durNs),
	}
	if int(s.n) < MaxEvents {
		s.ev[s.n] = e
		s.n++
		return
	}
	s.Truncated = true
	for i := range s.ev {
		if s.ev[i].Phase == PhaseRetry {
			copy(s.ev[i:], s.ev[i+1:])
			s.ev[MaxEvents-1] = e
			return
		}
	}
}

// AddSince records an event spanning [startNs, now), startNs being a span
// clock reading (Now) — often LastEndNs, which spares a clock read. Nil-safe:
// a nil span reads no clock.
func (s *Span) AddSince(ph Phase, cause Cause, attempt int, startNs int64) {
	if s == nil {
		return
	}
	s.Add(ph, cause, attempt, startNs, Now()-startNs)
}

// LastEndNs returns the absolute end (unix ns) of the most recently
// recorded event, or Begin when the timeline is empty — the natural start
// boundary for the next phase without another clock read. Nil-safe.
func (s *Span) LastEndNs() int64 {
	if s == nil {
		return 0
	}
	if s.n == 0 {
		return s.Begin
	}
	e := &s.ev[s.n-1]
	return s.Begin + int64(e.StartNs) + int64(e.DurNs)
}

// NoteAttempt bumps the attempt counter. Nil-safe.
func (s *Span) NoteAttempt() {
	if s == nil {
		return
	}
	s.Attempts++
}

// Finish stamps the terminal cause and the total duration. Nil-safe.
func (s *Span) Finish(cause Cause, endUnixNs int64) {
	if s == nil {
		return
	}
	s.Cause = cause
	s.TotalNs = sat32(endUnixNs - s.Begin)
}

// Events returns the recorded timeline (aliasing the span's storage).
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	return s.ev[:s.n]
}

// Len returns how many events are recorded.
func (s *Span) Len() int {
	if s == nil {
		return 0
	}
	return int(s.n)
}

// PhaseTotals sums the recorded durations by phase.
func (s *Span) PhaseTotals() [NumPhases]uint64 {
	var tot [NumPhases]uint64
	if s == nil {
		return tot
	}
	for i := 0; i < int(s.n); i++ {
		tot[s.ev[i].Phase] += uint64(s.ev[i].DurNs)
	}
	return tot
}
