package cm

import (
	"runtime"
	"sync/atomic"

	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

// RoundRobin is a DeSTM-inspired deterministic scheduler (Ravichandran et
// al., PACT'14 — discussed in the paper's Related Work): threads may only
// start a transaction when they hold the rotation token, and the token
// advances on commit, so the commit order is (nearly) a fixed round-robin.
// It is the opposite extreme from guided execution — non-determinism is
// driven to its floor by serializing the commit order outright, at a
// correspondingly extreme cost in parallelism.
//
// Full determinism would deadlock when a thread finishes its work and
// stops transacting, so a waiter steals the token after MaxYields
// scheduler yields; steals are counted so experiments can report how
// deterministic a run actually was.
type RoundRobin struct {
	threads   int
	MaxYields int

	turn   atomic.Uint64
	steals atomic.Uint64
}

// NewRoundRobin returns a scheduler rotating over the given thread count
// (maxYields <= 0 selects 512).
func NewRoundRobin(threads, maxYields int) *RoundRobin {
	if threads < 1 {
		threads = 1
	}
	if maxYields <= 0 {
		maxYields = 512
	}
	return &RoundRobin{threads: threads, MaxYields: maxYields}
}

// Steals reports how many times a waiter had to steal the token from an
// idle thread (0 means the run was fully round-robin deterministic).
func (rr *RoundRobin) Steals() uint64 { return rr.steals.Load() }

// Arrive implements tl2.Gate: wait for the token. Returns GatePass when the
// token was already held, GateHold after waiting for it, and GateEscape when
// the wait bound expired and the token was stolen.
func (rr *RoundRobin) Arrive(pair txid.Pair) telemetry.GateOutcome {
	want := int(pair.Thread) % rr.threads
	cur := rr.turn.Load()
	for i := 0; i < rr.MaxYields; i++ {
		if int(cur%uint64(rr.threads)) == want {
			if i == 0 {
				return telemetry.GatePass
			}
			return telemetry.GateHold
		}
		runtime.Gosched()
		cur = rr.turn.Load()
	}
	// The token holder has gone quiet: steal by advancing the rotation to
	// this thread. CAS keeps concurrent stealers consistent.
	for {
		cur = rr.turn.Load()
		if int(cur%uint64(rr.threads)) == want {
			return telemetry.GateHold
		}
		next := cur + uint64((want-int(cur%uint64(rr.threads)))+rr.threads)%uint64(rr.threads)
		if rr.turn.CompareAndSwap(cur, next) {
			rr.steals.Add(1)
			return telemetry.GateEscape
		}
	}
}

// TxCommit implements tl2.EventSink: pass the token to the next thread.
func (rr *RoundRobin) TxCommit(pair txid.Pair, wv uint64, aborts int) {
	rr.turn.Add(1)
}

// TxAbort implements tl2.EventSink: aborts do not advance the rotation —
// the thread retries while it still holds the token.
func (rr *RoundRobin) TxAbort(pair txid.Pair, byWV uint64, known bool) {
}
