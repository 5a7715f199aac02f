// Package yield is the one place a thread gives up the processor. The
// repository stands in for the paper's pinned cores with scheduler yields
// (DESIGN.md "Substitutions" and "Yield policy"), so this file is the
// machine every experiment runs on. Each call site names its kind by the
// function it calls:
//
//   - Op: the per-transaction 1-in-Interleave roll at each read and write;
//   - Spin: one yield inside a bounded lock or registration spin;
//   - Backoff: the tiered yields between a conflict and the retry;
//   - Hold: the tiered yields of one round a gate holds a thread;
//   - N: a fixed number of yields (fault injection, contention managers).
package yield

import (
	"runtime"
	"sync/atomic"
)

// seq hands out distinct initial states for Op generators.
var seq atomic.Uint64

// Op is a per-transaction xorshift generator that yields the processor at
// one in n operations. On one core a transaction would otherwise run to
// completion between preemptions and never conflict; the roll forces
// transactions to overlap. The zero value seeds itself from a process-wide
// sequence on its first roll and then evolves across transactions and
// attempts: re-seeding per attempt would make the pattern a pure function
// of the attempt, so short transactions would always or never yield at the
// same operation. The rolls are pseudo-random, not replayable.
type Op struct{ x uint64 }

// Yield rolls once and yields when the roll comes up; n <= 0 never yields
// and leaves the generator untouched. The guard inlines into the engines'
// read and write paths, so Interleave 0 costs one compare.
func (o *Op) Yield(n int) {
	if n > 0 {
		o.yield(n)
	}
}

// yield is Yield past its guard, kept a separate call so the guard stays
// small enough to inline.
func (o *Op) yield(n int) {
	if o.roll(n) {
		runtime.Gosched()
	}
}

// roll advances the generator and reports whether this operation yields.
func (o *Op) roll(n int) bool {
	if o.x == 0 {
		o.x = seq.Add(0x9e3779b97f4a7c15) | 1
	}
	o.x ^= o.x << 13
	o.x ^= o.x >> 7
	o.x ^= o.x << 17
	return o.x%uint64(n) == 0
}

// Spin yields once inside a bounded spin, so that on an oversubscribed core
// the holder of a lock can run and release it; busy-waiting would deadlock
// the core.
func Spin() { runtime.Gosched() }

// N yields n times.
func N(n int) {
	for i := 0; i < n; i++ {
		runtime.Gosched()
	}
}

// Backoff yields between a conflict and retry attempt number attempt:
// early retries go straight back (most conflicts are transient) and
// persistent losers step aside longer. It is yield-based only: a timer
// sleep's ~100µs granularity dwarfs a transaction, and its jitter would
// dominate the execution-time variance the experiments measure.
func Backoff(attempt int) { N(backoffYields(attempt)) }

// Hold yields for round number round of a gate holding a thread. One yield
// hands the core to every other runnable thread once, one round of their
// progress.
func Hold(round int) { N(holdYields(round)) }

// backoffYields is Backoff's count: 0 below attempt 2, 1 below 8, 4 below
// 32 and 16 from then on.
func backoffYields(attempt int) int {
	switch {
	case attempt < 2:
		return 0
	case attempt < 8:
		return 1
	case attempt < 32:
		return 4
	default:
		return 16
	}
}

// holdYields is Hold's count: the Backoff tiers with at least one yield, or
// a held thread would busy-spin the gate loop.
func holdYields(round int) int { return max(1, backoffYields(round)) }
