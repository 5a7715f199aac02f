package guide

import (
	"sync"
	"sync/atomic"
	"testing"

	"gstm/internal/model"
	"gstm/internal/telemetry"
	"gstm/internal/tl2"
	"gstm/internal/trace"
	"gstm/internal/txid"
)

func pk(txn, thread int) txid.Packed {
	return txid.Pair{Txn: txid.TxnID(txn), Thread: txid.ThreadID(thread)}.Pack()
}

func pair(txn, thread int) txid.Pair {
	return txid.Pair{Txn: txid.TxnID(txn), Thread: txid.ThreadID(thread)}
}

// buildTable builds a table where from state A={<a0>} the only
// high-probability destination is B={<b1>}, and C={<c2>} is low
// probability.
func buildTable(t testing.TB) *model.GuideTable {
	t.Helper()
	a := trace.NewState(nil, pk(0, 0))
	b := trace.NewState(nil, pk(1, 1))
	c := trace.NewState(nil, pk(2, 2))
	var runs [][]trace.State
	for i := 0; i < 40; i++ {
		runs = append(runs, []trace.State{a, b})
	}
	runs = append(runs, []trace.State{a, c})
	m := model.Build(2, runs)
	return model.Compile(m, 4)
}

func TestArriveBeforeAnyState(t *testing.T) {
	c := NewController(buildTable(t))
	// Must not block: no state observed yet.
	c.Arrive(pair(2, 2))
	passed, held, escaped := c.GateStats()
	if passed != 1 || held != 0 || escaped != 0 {
		t.Fatalf("stats = %d/%d/%d", passed, held, escaped)
	}
}

func TestStateTrackingOneCommitDelay(t *testing.T) {
	c := NewController(buildTable(t))
	if _, ok := c.CurrentState(); ok {
		t.Fatal("state before any commit")
	}
	c.TxCommit(pair(0, 0), 1, 0)
	if _, ok := c.CurrentState(); ok {
		t.Fatal("state finalized too early (no delay)")
	}
	c.TxCommit(pair(1, 1), 2, 0)
	k, ok := c.CurrentState()
	if !ok {
		t.Fatal("no state after second commit")
	}
	want := trace.NewState(nil, pk(0, 0)).Key()
	if k != want {
		t.Fatalf("current state = %q, want %q", k, want)
	}
}

func TestAbortsFoldedIntoState(t *testing.T) {
	c := NewController(buildTable(t))
	c.TxCommit(pair(1, 7), 5, 0)   // pending commit wv=5
	c.TxAbort(pair(0, 6), 5, true) // abort attributed to wv=5
	c.TxCommit(pair(0, 0), 6, 0)   // finalizes wv=5's state
	k, ok := c.CurrentState()
	if !ok {
		t.Fatal("no state")
	}
	want := trace.NewState([]txid.Packed{pk(0, 6)}, pk(1, 7))
	if k != want.Key() {
		t.Fatalf("state = %q, want %q (the paper's {<a6>, <b7>})", k, want.Key())
	}
}

func TestGateBlocksLowProbabilityPair(t *testing.T) {
	c := NewController(buildTable(t), WithGateRetries(3))
	// Drive current state to A.
	c.TxCommit(pair(0, 0), 1, 0)
	c.TxCommit(pair(9, 9), 2, 0)
	k, _ := c.CurrentState()
	wantA := trace.NewState(nil, pk(0, 0)).Key()
	if k != wantA {
		t.Fatalf("setup: current state %q, want %q", k, wantA)
	}
	// Pair (2,2) — only in low-probability destination C — must be held
	// and eventually escape.
	c.Arrive(pair(2, 2))
	_, _, escaped := c.GateStats()
	if escaped != 1 {
		t.Fatalf("escaped = %d, want 1", escaped)
	}
	// Pair (1,1) participates in B, the high-probability destination.
	c.Arrive(pair(1, 1))
	passed, _, _ := c.GateStats()
	if passed != 1 {
		t.Fatalf("passed = %d, want 1", passed)
	}
}

func TestUnknownStateNeverBlocks(t *testing.T) {
	c := NewController(buildTable(t), WithGateRetries(1000000))
	// Current state becomes {<z9>}, absent from the model.
	c.TxCommit(pair(25, 9), 1, 0)
	c.TxCommit(pair(25, 9), 2, 0)
	done := make(chan struct{})
	go func() {
		c.Arrive(pair(2, 2)) // would block ~forever if unknown states gated
		close(done)
	}()
	<-done
}

// TestPruneDropsStaleAborts: aborts live in a ring of abortWindow slots
// by write version. An abort against a commit that never came does not
// leak into the commit abortWindow versions later, which shares its slot;
// and once a slot serves a newer commit, an abort against the older one is
// dropped rather than joining the newer state.
func TestPruneDropsStaleAborts(t *testing.T) {
	c := NewController(buildTable(t))
	c.TxAbort(pair(1, 1), 1, true) // wv 1 is never committed
	solo := trace.NewState(nil, pk(0, 0)).Key()
	const last = 2100
	for wv := uint64(2); wv < last; wv++ {
		c.TxCommit(pair(0, 0), wv, 0)
		if k, ok := c.CurrentState(); ok && k != solo {
			t.Fatalf("wv %d: state %x, want abort-free %x", wv, k, solo)
		}
	}
	pend := uint64(last - 1)
	stale := pend - abortWindow // shares the pending commit's slot
	c.TxAbort(pair(1, 1), stale, true)
	c.TxAbort(pair(2, 2), pend, true)
	c.TxAbort(pair(1, 1), stale, true) // older than the slot's commit: dropped
	c.TxCommit(pair(0, 0), last, 0)
	want := trace.NewState([]txid.Packed{pk(2, 2)}, pk(0, 0)).Key()
	if k, _ := c.CurrentState(); k != want {
		t.Fatalf("state %x, want %x: the stale abort joined it", k, want)
	}
}

// TestGuidedEndToEnd wires a Controller into a real TL2 runtime and checks
// that guided execution still completes all work correctly.
func TestGuidedEndToEnd(t *testing.T) {
	// Profile phase: run a contended counter workload, collect the trace.
	profileRT := tl2.New(tl2.Config{Interleave: 4})
	col := trace.NewCollector()
	profileRT.SetSink(col)
	run := func(rt *tl2.Runtime, v *tl2.Var[int]) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(id txid.ThreadID) {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					_ = rt.Atomic(id, txid.TxnID(int(id)%2), func(tx *tl2.Tx) error {
						tl2.Write(tx, v, tl2.Read(tx, v)+1)
						return nil
					})
				}
			}(txid.ThreadID(w))
		}
		wg.Wait()
	}
	v1 := tl2.NewVar(0)
	run(profileRT, v1)
	tr := col.Finalize()
	if tr.Commits != 400 {
		t.Fatalf("profile commits = %d", tr.Commits)
	}

	// Model + guided phase.
	m := model.BuildFromTraces(4, []*trace.Trace{tr})
	if m.NumStates() == 0 {
		t.Fatal("model is empty")
	}
	table := model.Compile(m, 4)
	guidedRT := tl2.New(tl2.Config{Interleave: 4})
	ctrl := NewController(table)
	guidedRT.SetSink(ctrl)
	guidedRT.SetGate(ctrl)

	v2 := tl2.NewVar(0)
	run(guidedRT, v2)
	if got := v2.Peek(); got != 400 {
		t.Fatalf("guided counter = %d, want 400 (guidance broke correctness)", got)
	}
	if commits, _ := guidedRT.Stats(); commits != 400 {
		t.Fatalf("guided runtime commits = %d, want 400", commits)
	}
}

// TestControllerCommitZeroAlloc is the allocation gate run by CI's
// bench-smoke: an abort-free commit that finalizes a state the controller has
// seen before reaches the box interned for its pair and republishes it,
// allocating nothing. Armed WithWatchdog, the commits also close watchdog
// windows without a trip, still allocating nothing. With telemetry
// attached, a Check in a state already judged books its decision through
// the state's resolved cell, allocating nothing either.
func TestControllerCommitZeroAlloc(t *testing.T) {
	for _, armed := range []bool{false, true} {
		var opts []Option
		if armed {
			opts = append(opts, WithWatchdog())
		}
		c := NewController(buildTable(t), opts...)
		wv := uint64(0)
		commit := func() {
			wv++
			c.TxCommit(pair(1, 1), wv, 0)
		}
		commit()
		commit() // the first finalization interns {<b1>}
		// AllocsPerRun adds one warm-up call: 2+1+runs commits in all.
		const runs = 2*watchdogWindow + 100
		if got := testing.AllocsPerRun(runs, commit); got != 0 {
			t.Fatalf("armed=%v: abort-free commit of a seen state: %v allocs, want 0", armed, got)
		}
		if k, _ := c.CurrentState(); k != trace.NewState(nil, pk(1, 1)).Key() {
			t.Fatalf("armed=%v: state = %q after repeated commits of (1,1)", armed, k)
		}
		if !armed {
			continue
		}
		if c.Tripped() {
			t.Fatal("armed controller tripped on commits alone")
		}
		if want := (3 + runs) % watchdogWindow; c.wd.winEvents != want {
			t.Fatalf("open window holds %d events, want %d after two closed windows", c.wd.winEvents, want)
		}
	}

	tel := telemetry.NewDetached("alloc")
	c := NewController(buildTable(t), WithTelemetry(tel))
	c.TxCommit(pair(1, 1), 1, 0)
	c.TxCommit(pair(0, 0), 2, 0) // latest is A = {<a0>}
	check := func() {
		c.Check(pair(1, 1)) // in B: passes
		c.Check(pair(2, 2)) // only in C: escapes
	}
	check() // resolves A's cell
	if got := testing.AllocsPerRun(1000, check); got != 0 {
		t.Fatalf("Check in a seen state with telemetry: %v allocs, want 0", got)
	}
	want := telemetry.GateStateSnapshot{State: "{<a0>}", Visits: 2 * 1002, Escapes: 1002}
	if s := tel.Snapshot(); len(s.GateStates) != 1 || s.GateStates[0] != want {
		t.Fatalf("gate states %+v, want %+v", s.GateStates, want)
	}
}

// BenchmarkControllerCommitCheck prices guidance on the serving path: two
// goroutines take turns at commit and Check on one controller with
// telemetry, as two workers do, and an abort is reported against one
// commit in twenty (5 %).
func BenchmarkControllerCommitCheck(b *testing.B) {
	c := NewController(buildTable(b), WithTelemetry(telemetry.NewDetached("bench")))
	var wv atomic.Uint64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(self, other txid.Pair) {
			defer wg.Done()
			for i := int(self.Thread); i < b.N; i += 2 {
				v := wv.Add(1)
				c.TxCommit(self, v, 0)
				if i%40 < 2 {
					c.TxAbort(other, v, true)
				}
				c.Check(other)
			}
		}(pair(g, g), pair(1-g, 1-g))
	}
	wg.Wait()
}

// TestCheckJudgesLatestCommit: Check asks about the commit its caller's
// transaction will follow — the pending one, with the aborts reported
// against it so far — not cur, one commit behind. On two threads taking
// turns, judging cur would refuse every turn.
func TestCheckJudgesLatestCommit(t *testing.T) {
	a, b, c := pair(0, 0), pair(1, 1), pair(2, 2)
	solo := func(p txid.Pair) trace.Key { return trace.NewState(nil, p.Pack()).Key() }
	bAbortedC := trace.NewState([]txid.Packed{c.Pack()}, b.Pack()).Key()
	m := model.New(3)
	m.AddTransitionKeys(solo(a), solo(b)) // turns: a, b, a, b, ...
	m.AddTransitionKeys(solo(b), solo(a))
	m.AddTransitionKeys(bAbortedC, solo(c)) // after b aborts c, c commits
	ctl := NewController(model.Compile(m, 4))
	want := func(step string, p txid.Pair, o telemetry.GateOutcome) {
		t.Helper()
		if got := ctl.Check(p); got != o {
			t.Fatalf("%s: Check(%v) = %v, want %v", step, p, got, o)
		}
	}
	ctl.TxCommit(a, 1, 0)
	want("after a", b, telemetry.GatePass)
	want("after a", a, telemetry.GateEscape)
	ctl.TxCommit(b, 2, 0) // cur is {<a0>}, whose successor b has just run
	want("after b", a, telemetry.GatePass)
	want("after b", b, telemetry.GateEscape)
	ctl.TxAbort(c, 2, true)
	want("after b aborted c", c, telemetry.GatePass)
	want("after b aborted c", a, telemetry.GateEscape)
	ctl.TxCommit(a, 3, 0)
	if k, _ := ctl.CurrentState(); k != bAbortedC {
		t.Fatalf("finalized state %x, want b's commit with c's abort %x", k, bAbortedC)
	}
}

// TestInternedStatesMatchNewState: the key built in the scratch buffer is
// NewState's — aborts sorted and de-duplicated, the commit last — and states
// past the intern bound are still tracked exactly.
func TestInternedStatesMatchNewState(t *testing.T) {
	c := NewController(buildTable(t))
	for i := 0; i < maxInterned+8; i++ {
		wv := uint64(i + 1)
		committer := pair(i, i%5)
		c.TxCommit(committer, wv, 0) // finalizes wv-1, makes wv pending
		aborted := []txid.Pair{pair(i%7, 3), pair(2, 1), pair(i%7, 3)}
		for _, a := range aborted {
			c.TxAbort(a, wv, true)
		}
		c.TxCommit(pair(0, 0), 0, 0) // finalizes wv with its aborts
		want := trace.NewState([]txid.Packed{pk(i%7, 3), pk(2, 1)}, committer.Pack()).Key()
		if k, _ := c.CurrentState(); k != want {
			t.Fatalf("state %d: key %x, want %x", i, k, want)
		}
	}
	if len(c.boxes) != maxInterned {
		t.Fatalf("%d interned boxes, want the bound %d", len(c.boxes), maxInterned)
	}
}
