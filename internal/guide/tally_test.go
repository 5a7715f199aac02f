package guide

import (
	"sync"
	"testing"

	"gstm/internal/model"
	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

// rowsSumToGateStats fails unless the per-state rows of s sum to its gate
// decision totals: every decision books to exactly one row.
func rowsSumToGateStats(t *testing.T, s telemetry.Snapshot) {
	t.Helper()
	var visits, holds, escapes uint64
	for _, g := range s.GateStates {
		visits, holds, escapes = visits+g.Visits, holds+g.Holds, escapes+g.Escapes
	}
	if visits != s.GatePassed+s.GateHeld+s.GateEscaped || holds != s.GateHeld || escapes != s.GateEscaped {
		t.Fatalf("rows sum to %d visits, %d holds, %d escapes; gate stats %d/%d/%d",
			visits, holds, escapes, s.GatePassed, s.GateHeld, s.GateEscaped)
	}
}

// TestGateTalliesLifecycle: a pass, a 5 µs hold and a 10 µs escape in two
// states read back through the Metrics the controller is installed on;
// Reset empties every gate field, and a box judged before the reset keeps
// booking after it.
func TestGateTalliesLifecycle(t *testing.T) {
	tel := telemetry.NewDetached("tallies")
	c := NewController(buildTable(t), WithTelemetry(tel))
	c.TxCommit(pair(0, 0), 1, 0)
	a := c.latest.Load() // {<a0>}
	c.TxCommit(pair(1, 1), 2, 0)
	b := c.latest.Load() // {<b1>}
	c.count(a, pair(0, 0), telemetry.GatePass, 0)
	c.count(a, pair(0, 0), telemetry.GateHold, 5000)
	c.count(b, pair(0, 0), telemetry.GateEscape, 10000)

	s := tel.Snapshot()
	if s.GatePassed != 1 || s.GateHeld != 1 || s.GateEscaped != 1 {
		t.Fatalf("gate = %d/%d/%d", s.GatePassed, s.GateHeld, s.GateEscaped)
	}
	if s.GateHoldTime.Count != 2 || s.GateHoldTime.SumNs != 15000 {
		t.Fatalf("gate hold count/sum = %d/%d", s.GateHoldTime.Count, s.GateHoldTime.SumNs)
	}
	if len(s.GateStates) != 2 || s.GateStates[0].State != "{<a0>}" || s.GateStates[0].Visits != 2 {
		t.Fatalf("gate states = %+v", s.GateStates)
	}
	rowsSumToGateStats(t, s)

	tel.Reset()
	s = tel.Snapshot()
	if s.GatePassed != 0 || s.GateHeld != 0 || s.GateEscaped != 0 || s.GateHoldTime.Count != 0 ||
		s.WatchdogTrips != 0 || len(s.GateStates) != 0 {
		t.Fatalf("snapshot after reset not empty: %+v", s)
	}
	if p, h, e := c.GateStats(); p != 0 || h != 0 || e != 0 {
		t.Fatalf("GateStats after reset = %d/%d/%d", p, h, e)
	}
	c.count(a, pair(0, 0), telemetry.GateEscape, 0)
	if s = tel.Snapshot(); len(s.GateStates) != 1 || s.GateStates[0] != (telemetry.GateStateSnapshot{State: "{<a0>}", Visits: 1, Escapes: 1}) {
		t.Fatalf("gate states after reset and one escape = %+v", s.GateStates)
	}
}

// TestGateStateOverflowFoldsIntoOther drives more than maxInterned states
// with aborts, each judged once: the first maxInterned get rows of their
// own, the (other) row holds exactly the rest, and the rows sum to
// GateStats.
func TestGateStateOverflowFoldsIntoOther(t *testing.T) {
	const extra = 50
	tel := telemetry.NewDetached("overflow")
	c := NewController(buildTable(t), WithTelemetry(tel))
	for i := 0; i < maxInterned+extra; i++ {
		wv := uint64(i + 1)
		c.TxCommit(pair(0, 0), wv, 0)
		c.TxAbort(pair(100+i, 3), wv, true) // latest: a state never seen
		c.Check(pair(1, 1))
	}
	s := tel.Snapshot()
	var other *telemetry.GateStateSnapshot
	for i := range s.GateStates {
		if s.GateStates[i].State == OverflowState {
			other = &s.GateStates[i]
		}
	}
	if other == nil || other.Visits != extra {
		t.Fatalf("overflow entry = %+v, want %d visits", other, extra)
	}
	if len(s.GateStates) != maxInterned+1 {
		t.Fatalf("tracked states = %d, want %d", len(s.GateStates), maxInterned+1)
	}
	rowsSumToGateStats(t, s)
}

// TestNilTelemetrySafe: a controller given a nil Metrics decides, tracks
// and reports its own tallies as without one.
func TestNilTelemetrySafe(t *testing.T) {
	c := NewController(buildTable(t), WithTelemetry(nil), WithGateRetries(1))
	c.Check(pair(2, 2))
	c.TxCommit(pair(0, 0), 1, 0)
	c.TxCommit(pair(9, 9), 2, 0)
	c.Arrive(pair(2, 2)) // refused in {<a0>}: held once, then escapes
	if p, h, e := c.GateStats(); p != 1 || h != 0 || e != 1 {
		t.Fatalf("GateStats = %d/%d/%d, want 1/0/1", p, h, e)
	}
	var s telemetry.Snapshot
	c.FillGate(&s)
	rowsSumToGateStats(t, s)
	if s.GateHoldTime.Count != 1 {
		t.Fatalf("hold samples = %d, want 1", s.GateHoldTime.Count)
	}
}

// TestHeldArrivalZeroAlloc: a held arrival in a state already judged books
// its decision and hold time allocating nothing.
func TestHeldArrivalZeroAlloc(t *testing.T) {
	tel := telemetry.NewDetached("alloc")
	c := NewController(buildTable(t), WithTelemetry(tel), WithGateRetries(1))
	c.TxCommit(pair(0, 0), 1, 0)
	c.TxCommit(pair(9, 9), 2, 0) // cur is A = {<a0>}
	hold := func() { c.Arrive(pair(2, 2)) }
	hold() // A's box is judged once before the measure
	if got := testing.AllocsPerRun(1000, hold); got != 0 {
		t.Fatalf("held arrival in a seen state: %v allocs, want 0", got)
	}
	if s := tel.Snapshot(); s.GateEscaped != 1002 || s.GateHoldTime.Count != 1002 {
		t.Fatalf("escapes/hold samples = %d/%d, want 1002/1002", s.GateEscaped, s.GateHoldTime.Count)
	}
}

// TestResetRebasesWatchdogWindow: a reset halfway through a watchdog
// window, after a closed window with escapes, leaves the window's next
// verdict on the decisions since the reset. Were GateStats zeroed without
// rebasing the window, its differences would wrap and the breaker would
// trip on them.
func TestResetRebasesWatchdogWindow(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	// In state {<b1>} the model admits a and refuses c.
	m := model.New(3)
	m.AddTransitionKeys(soloStateKey(b), soloStateKey(a))
	tel := telemetry.NewDetached("reset-window")
	s := &sink{ctrl: NewController(model.Compile(m, 4), WithTelemetry(tel), WithWatchdog())}
	decide := func(passes, escapes int) {
		for i := 0; i < passes; i++ {
			s.ctrl.Check(a)
		}
		for i := 0; i < escapes; i++ {
			s.ctrl.Check(c)
		}
	}

	s.commit(b)
	decide(80, 20) // escape rate 0.2: no trip
	s.fill(b, watchdogWindow)
	if s.ctrl.Tripped() || s.snap().EscapeRate != 0.2 {
		t.Fatalf("first window: tripped=%v, %+v", s.ctrl.Tripped(), s.snap())
	}

	decide(30, 5)
	s.fill(b, watchdogWindow+watchdogWindow/2)
	tel.Reset()
	decide(40, 0)
	s.fill(b, 2*watchdogWindow)
	if s.ctrl.Tripped() {
		t.Fatalf("tripped after a reset: %+v", s.snap().LastTrip)
	}
	snap := s.snap()
	for _, r := range []float64{snap.EscapeRate, snap.HoldRate, snap.AbortRate} {
		if r < 0 || r > 1 {
			t.Fatalf("window rates out of [0, 1]: %+v", snap)
		}
	}
	if snap.EscapeRate != 0 || snap.HoldRate != 0 {
		t.Fatalf("window after the reset judged %+v, want 40 passes and nothing else", snap)
	}
}

// TestSnapshotWhileDeciding takes snapshots, and in a first round resets,
// while Checks, Arrives, commits and aborts run, the aborts interning new
// states under the scrape's walk; meaningful under -race. A decision that
// straddles a reset may be zeroed in one record and not the other, so the
// rows are held to GateStats after a second round that snapshots only,
// begun with a quiet reset.
func TestSnapshotWhileDeciding(t *testing.T) {
	tel := telemetry.NewDetached("race")
	c := NewController(buildTable(t), WithTelemetry(tel), WithGateRetries(2))
	round := func(resets bool) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					p := pair(i%3, id)
					c.Check(p)
					if i%5 == 0 {
						c.Arrive(p)
					}
					wv := uint64(id<<20 | i)
					c.TxCommit(p, wv, 0)
					if i%4 == 0 {
						c.TxAbort(txid.Pair{Txn: txid.TxnID(i % 200), Thread: txid.ThreadID(id)}, wv, true)
					}
				}
			}(g)
		}
		for i := 0; i < 200; i++ {
			_ = tel.Snapshot()
			if resets && i%20 == 19 {
				tel.Reset()
			}
		}
		close(stop)
		wg.Wait()
	}
	round(true)
	tel.Reset()
	round(false)
	c.Check(pair(1, 1))
	s := tel.Snapshot()
	if s.GatePassed+s.GateHeld+s.GateEscaped == 0 {
		t.Fatal("no decisions counted")
	}
	rowsSumToGateStats(t, s)
	tel.Reset()
	if s := tel.Snapshot(); s.GatePassed+s.GateHeld+s.GateEscaped != 0 || len(s.GateStates) != 0 || s.GateHoldTime.Count != 0 {
		t.Fatalf("snapshot after a quiet reset = %+v", s)
	}
}
