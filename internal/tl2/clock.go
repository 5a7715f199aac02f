// Package tl2 implements the Transactional Locking II software transactional
// memory of Dice, Shalev and Shavit (DISC'06), the STM the paper builds its
// guided execution on.
//
// The implementation follows the published algorithm:
//
//   - a global version clock, sampled into rv at transaction start;
//   - per-location versioned lock words (version in the high bits, a lock
//     bit in the low bit; a locked word names its owner), checked on every
//     transactional read;
//   - lazy (commit-time) conflict detection: writes are buffered in a
//     write-back redo log and only published after all written locations
//     have been locked, a new write version wv has been drawn from the
//     clock, and the read set has been validated against rv;
//   - bounded spinning on locked words with scheduler yields, then abort.
//
// Two departures from the C original are deliberate and documented in
// DESIGN.md: locations are object-granularity Vars holding an
// atomic.Pointer (Go's memory model forbids the C version's racy word
// loads), and the runtime exposes commit/abort event hooks plus a start
// gate so the tracing and guided-execution layers (internal/trace,
// internal/guide) can observe and steer execution — the paper's
// instrumented TX_start/TX_abort/TX_commit.
package tl2

import "sync/atomic"

// clock is the global version clock. It starts at zero and is incremented
// once per commit; the post-increment value is the commit's unique write
// version wv.
type clock struct {
	_ [7]uint64 // pad to keep the hot word on its own cache line
	v atomic.Uint64
	_ [7]uint64
}

// globalClock is the process-wide version clock, exactly as in the original
// TL2 library (a single global counter shared by every transaction in the
// process). Sharing it across Runtime instances means a Var written under
// one Runtime is always readable under another: location versions can never
// exceed the clock any transaction samples rv from.
var globalClock clock

// now returns the current clock value (the rv sample at transaction start).
func (c *clock) now() uint64 { return c.v.Load() }

// tick advances the clock and returns the new value, the write version wv
// of the committing transaction. Every tick result is unique, which the
// tracing layer relies on to totally order the transaction sequence — so
// this is the clock used whenever an event sink is installed.
func (c *clock) tick() uint64 { return c.v.Add(1) }

// advanceTo raises the clock to at least v (CAS-max; a no-op when the
// clock already passed v). Recovery uses it to move a rebooted shard's
// clock past the last durable commit's wv, so versions published by
// replay and by post-recovery traffic stay monotone with the log.
func (c *clock) advanceTo(v uint64) {
	for {
		cur := c.v.Load()
		if cur >= v || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// tickGV4 draws a write version using TL2's GV4 "pass on failure" variant:
// one CAS attempt to advance the clock, and on failure the loser adopts the
// winner's (already advanced) value as its own wv instead of retrying. Two
// commits may then share a wv, which is safe: the sharers held disjoint
// write-set locks (overlapping sets would have serialized on a lock), both
// published versions exceed every rv sampled before either commit, and a
// reader validates `version > rv`, which ties do not weaken. What sharing
// buys is that the global clock line is written once per contention burst
// instead of once per commit — the uncontended-loser retry loop that made
// the clock the first scaling wall is gone.
//
// needValidate is false only when this caller itself moved the clock
// rv→rv+1, i.e. provably no transaction committed between the rv sample and
// the tick (the classic TL2 validation elision). An adopted value never
// elides validation: the winner it was adopted from committed after our rv.
//
// adopted reports the pass-on-failure path was taken (telemetry).
func (c *clock) tickGV4(rv uint64) (wv uint64, needValidate, adopted bool) {
	v := c.v.Load()
	if c.v.CompareAndSwap(v, v+1) {
		return v + 1, v != rv, false
	}
	// Pass on failure: a winner advanced the clock past v; its value is
	// > v ≥ rv, so it is a valid write version for this commit too.
	return c.v.Load(), true, true
}

// A versioned lock word packs a version number, a waiter mark and a lock
// bit into one word:
//
//	unlocked: word = version<<2 | waitBit
//	locked:   word = tag<<2     | lockedBit
//
// A locked word names its owner: the lock CAS installs the holder's
// ownership tag (Tx.tag) in place of the version, so "is this lock mine?"
// is one compare against the word already loaded. The pre-lock word —
// version and waiter mark — lives in the holder's write-set entry (Pre)
// until the release either restores it (abort) or publishes a new version
// (commit). Readers never need the version of a locked word: they spin
// until it is released, or abort.
//
// waitBit marks a location some parked transaction waits on (waiters.go).
// Only a parker sets it, only on an unlocked word; a commit's release at a
// new version clears it, and an abort's restore of Pre keeps it.
const (
	lockedBit uint64 = 1
	waitBit   uint64 = 2
)

// makeWord is the unlocked, unmarked word of a location at version.
func makeWord(version uint64) uint64 { return version << 2 }

// lockedBy is the word of a location locked by the transaction with
// ownership tag tag.
func lockedBy(tag uint64) uint64 { return tag<<2 | lockedBit }

func wordVersion(w uint64) uint64 { return w >> 2 }
func wordLocked(w uint64) bool    { return w&lockedBit != 0 }
