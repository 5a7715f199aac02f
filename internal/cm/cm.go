// Package cm implements contention-manager scheduling policies in the
// style of Polite (Herlihy et al., PODC'03), Karma (Scherer & Scott,
// PODC'05) and Greedy (Guerraoui et al., PODC'05) — the alternatives the
// paper's Related Work discusses and argues against: "CMs clearly
// compromise one thread over another which only leads to higher variance."
//
// The original managers choose a victim at conflict time. A commit-time
// locking STM like TL2 has no victim choice — the committer always wins —
// so each policy is realized here the way the paper realizes guidance: as
// a transaction-start gate (tl2.Gate) plus an event observer
// (tl2.EventSink), shaping who gets to *enter* the conflict race rather
// than who wins it. The ablation benchmarks in bench_test.go compare the
// per-thread execution-time variance of these policies against guided
// execution, putting the paper's claim to the test.
package cm

import (
	"runtime"
	"sync/atomic"

	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

// maxThreads bounds the per-thread state arrays. ThreadIDs at or above the
// bound share the last slot (degraded but safe).
const maxThreads = 256

func slot(t txid.ThreadID) int {
	if int(t) >= maxThreads {
		return maxThreads - 1
	}
	return int(t)
}

// Polite backs a thread off exponentially after each consecutive abort
// before letting it re-enter the transactional race, and forgets on
// commit.
type Polite struct {
	// MaxExponent caps the backoff at 2^MaxExponent scheduler yields.
	MaxExponent int

	streak [maxThreads]atomic.Int32
}

// NewPolite returns a Polite manager with the given backoff cap
// (values <= 0 mean the default of 6, i.e. at most 64 yields).
func NewPolite(maxExponent int) *Polite {
	if maxExponent <= 0 {
		maxExponent = 6
	}
	return &Polite{MaxExponent: maxExponent}
}

// Arrive implements tl2.Gate: exponential yield backoff in the current
// abort streak.
func (p *Polite) Arrive(pair txid.Pair) telemetry.GateOutcome {
	n := int(p.streak[slot(pair.Thread)].Load())
	if n == 0 {
		return telemetry.GatePass
	}
	if n > p.MaxExponent {
		n = p.MaxExponent
	}
	for i := 0; i < 1<<n; i++ {
		runtime.Gosched()
	}
	return telemetry.GateHold
}

// TxCommit implements tl2.EventSink: a commit clears the thread's streak.
func (p *Polite) TxCommit(pair txid.Pair, wv uint64, aborts int) {
	p.streak[slot(pair.Thread)].Store(0)
}

// TxAbort implements tl2.EventSink: an abort lengthens the streak.
func (p *Polite) TxAbort(pair txid.Pair, byWV uint64, known bool) {
	p.streak[slot(pair.Thread)].Add(1)
}

// Karma prioritizes threads that have invested more transactional work:
// karma grows with every committed transaction's footprint (approximated
// by its retry count plus one) and with each abort (the invested work was
// lost but the priority is retained, as in the original). At arrival a
// thread yields while its karma is far below the current maximum.
type Karma struct {
	// Threshold is how far below the maximum karma a thread may be before
	// it is made to yield; larger values gate less.
	Threshold int64
	// MaxYields bounds the yielding (progress guarantee).
	MaxYields int

	karma [maxThreads]atomic.Int64
}

// NewKarma returns a Karma manager. Zero arguments select the defaults
// (threshold 16, at most 32 yields).
func NewKarma(threshold int64, maxYields int) *Karma {
	if threshold <= 0 {
		threshold = 16
	}
	if maxYields <= 0 {
		maxYields = 32
	}
	return &Karma{Threshold: threshold, MaxYields: maxYields}
}

func (k *Karma) maxKarma() int64 {
	var max int64
	for i := 0; i < maxThreads; i++ {
		if v := k.karma[i].Load(); v > max {
			max = v
		}
	}
	return max
}

// Arrive implements tl2.Gate.
func (k *Karma) Arrive(pair txid.Pair) telemetry.GateOutcome {
	mine := k.karma[slot(pair.Thread)].Load()
	for i := 0; i < k.MaxYields; i++ {
		if k.maxKarma()-mine <= k.Threshold {
			if i == 0 {
				return telemetry.GatePass
			}
			return telemetry.GateHold
		}
		runtime.Gosched()
		mine = k.karma[slot(pair.Thread)].Load()
	}
	return telemetry.GateEscape
}

// TxCommit implements tl2.EventSink: karma decays on commit (the priority
// was spent) but the completed footprint still counts a little, matching
// Karma's reset-to-zero with the footprint re-accumulating next time.
func (k *Karma) TxCommit(pair txid.Pair, wv uint64, aborts int) {
	k.karma[slot(pair.Thread)].Store(0)
}

// TxAbort implements tl2.EventSink: lost work raises priority.
func (k *Karma) TxAbort(pair txid.Pair, byWV uint64, known bool) {
	k.karma[slot(pair.Thread)].Add(1)
}

// Greedy favours the transaction with the earliest start time: a thread
// whose current transaction started recently yields while any much older
// transaction is still active.
type Greedy struct {
	// MaxYields bounds the deference (progress guarantee).
	MaxYields int

	clock atomic.Uint64
	start [maxThreads]atomic.Uint64 // logical start time; 0 = inactive
}

// NewGreedy returns a Greedy manager (maxYields <= 0 selects 32).
func NewGreedy(maxYields int) *Greedy {
	if maxYields <= 0 {
		maxYields = 32
	}
	return &Greedy{MaxYields: maxYields}
}

// Arrive implements tl2.Gate: stamp the transaction's start (kept across
// retries — retries keep their seniority, as in Greedy) and defer to
// older active transactions.
func (g *Greedy) Arrive(pair txid.Pair) telemetry.GateOutcome {
	s := slot(pair.Thread)
	mine := g.start[s].Load()
	if mine == 0 {
		mine = g.clock.Add(1)
		g.start[s].Store(mine)
	}
	for i := 0; i < g.MaxYields; i++ {
		if !g.olderActive(mine, s) {
			if i == 0 {
				return telemetry.GatePass
			}
			return telemetry.GateHold
		}
		runtime.Gosched()
	}
	return telemetry.GateEscape
}

func (g *Greedy) olderActive(mine uint64, self int) bool {
	for i := 0; i < maxThreads; i++ {
		if i == self {
			continue
		}
		if v := g.start[i].Load(); v != 0 && v < mine {
			return true
		}
	}
	return false
}

// TxCommit implements tl2.EventSink: the transaction is done, its
// seniority is released.
func (g *Greedy) TxCommit(pair txid.Pair, wv uint64, aborts int) {
	g.start[slot(pair.Thread)].Store(0)
}

// TxAbort implements tl2.EventSink: seniority is retained across retries.
func (g *Greedy) TxAbort(pair txid.Pair, byWV uint64, known bool) {}
