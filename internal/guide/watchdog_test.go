package guide

import (
	"strings"
	"testing"
	"time"

	"gstm/internal/model"
	"gstm/internal/telemetry"
	"gstm/internal/trace"
	"gstm/internal/txid"
)

func pairOf(txn, thread int) txid.Pair {
	return txid.Pair{Txn: txid.TxnID(txn), Thread: txid.ThreadID(thread)}
}

func soloStateKey(p txid.Pair) trace.Key {
	return trace.NewState(nil, p.Pack()).Key()
}

// adversarialTable compiles a guide table whose every known state's
// destination set contains only `ghost` — a pair that never actually runs
// — so every real arrival in a known state is held and finally escapes.
func adversarialTable(realPairs []txid.Pair, ghost txid.Pair) *model.GuideTable {
	m := model.New(4)
	for _, p := range realPairs {
		m.AddTransitionKeys(soloStateKey(p), soloStateKey(ghost))
	}
	return model.Compile(m, 4)
}

// TestWatchdogTripsOnEscapeRate drives an adversarial model: every gate
// arrival escapes, so the first full window must trip the breaker into
// pass-through mode.
func TestWatchdogTripsOnEscapeRate(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	ghost := pairOf(9, 9)
	ctrl := NewController(adversarialTable([]txid.Pair{a, b, c}, ghost), WithGateRetries(2))
	w := NewWatchdog(ctrl, WatchdogConfig{Window: 8, MinGateSamples: 2, MaxEscapeRate: 0.25})

	// Two commits establish a tracked current state (key {<a>}).
	w.TxCommit(a, 1, 0)
	w.TxCommit(b, 2, 0)
	if k, ok := ctrl.CurrentState(); !ok || k != soloStateKey(a) {
		t.Fatalf("current state not established: %q ok=%v", k, ok)
	}

	// Six arrivals by a disallowed pair, six more events: closes the
	// 8-event window with a 100% escape rate.
	for i := 0; i < 6; i++ {
		w.Arrive(c) // held twice, then forced through
		w.TxCommit(b, uint64(3+i), 0)
	}
	if !w.Tripped() {
		t.Fatal("watchdog did not trip on 100% escape rate")
	}
	snap := w.Snapshot()
	if snap.State != WatchdogTripped || snap.Trips != 1 {
		t.Fatalf("snapshot = %+v, want tripped with 1 trip", snap)
	}
	if snap.EscapeRate != 1.0 {
		t.Fatalf("escape rate = %v, want 1.0", snap.EscapeRate)
	}
	if snap.HoldRate != 1.0 {
		t.Fatalf("hold rate = %v, want 1.0", snap.HoldRate)
	}

	// Pass-through: arrivals short-circuit, so gate stats stop moving.
	p0, h0, e0 := ctrl.GateStats()
	for i := 0; i < 10; i++ {
		w.Arrive(c)
	}
	if p1, h1, e1 := ctrl.GateStats(); p1 != p0 || h1 != h0 || e1 != e0 {
		t.Fatalf("tripped watchdog still consulted the gate: %d/%d/%d → %d/%d/%d", p0, h0, e0, p1, h1, e1)
	}
	// Cooldown is 0: the trip is final.
	for i := 0; i < 50; i++ {
		w.TxCommit(b, uint64(100+i), 0)
	}
	if !w.Tripped() {
		t.Fatal("watchdog re-armed despite Cooldown=0")
	}
}

// TestWatchdogRearmsAfterCooldown verifies the tripped → armed transition
// and that a still-bad model trips it again.
func TestWatchdogRearmsAfterCooldown(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	ctrl := NewController(adversarialTable([]txid.Pair{a, b, c}, pairOf(9, 9)), WithGateRetries(1))
	dog := NewWatchdog(ctrl, WatchdogConfig{Window: 4, MinGateSamples: 1, MaxEscapeRate: 0.5, Cooldown: 3})

	wv := uint64(0)
	commit := func(p txid.Pair) { wv++; dog.TxCommit(p, wv, 0) }

	commit(a)
	commit(b)
	for i := 0; i < 2; i++ { // closes the first 4-event window
		dog.Arrive(c)
		commit(b)
	}
	if !dog.Tripped() {
		t.Fatal("watchdog did not trip")
	}
	for i := 0; i < 3; i++ { // cooldown events
		commit(b)
	}
	if dog.Tripped() {
		t.Fatal("watchdog did not re-arm after cooldown")
	}
	snap := dog.Snapshot()
	if snap.Trips != 1 || snap.Rearms != 1 {
		t.Fatalf("trips/rearms = %d/%d, want 1/1", snap.Trips, snap.Rearms)
	}
	// Model is still adversarial: next window trips again.
	for i := 0; i < 4; i++ {
		dog.Arrive(c)
		commit(b)
	}
	if !dog.Tripped() {
		t.Fatal("re-armed watchdog failed to trip on a still-bad model")
	}
	if s := dog.Snapshot(); s.Trips != 2 {
		t.Fatalf("trips = %d, want 2", s.Trips)
	}
}

// TestWatchdogTripsOnAbortRate covers the opt-in abort-rate breaker,
// which needs no gate samples at all.
func TestWatchdogTripsOnAbortRate(t *testing.T) {
	a, b := pairOf(0, 0), pairOf(1, 1)
	ctrl := NewController(adversarialTable([]txid.Pair{a, b}, pairOf(9, 9)))
	dog := NewWatchdog(ctrl, WatchdogConfig{
		Window:        4,
		MaxEscapeRate: -1,  // disabled
		MaxAbortRate:  0.5, // trip when >50% of events are aborts
	})
	dog.TxCommit(a, 1, 0)
	dog.TxAbort(b, 1, a, true)
	dog.TxAbort(b, 1, a, true)
	dog.TxAbort(b, 1, a, true)
	if !dog.Tripped() {
		t.Fatal("watchdog did not trip on 75% abort rate")
	}
	if s := dog.Snapshot(); s.AbortRate != 0.75 {
		t.Fatalf("abort rate = %v, want 0.75", s.AbortRate)
	}
}

// TestWatchdogHealthyModelStaysArmed: a model matching the workload never
// trips the breaker.
func TestWatchdogHealthyModelStaysArmed(t *testing.T) {
	a, b := pairOf(0, 0), pairOf(1, 1)
	// The controller tracks the current state one commit late: when pair p
	// arrives under an alternating a,b,a,b schedule the finalized state is
	// {<p>} itself, so a model matching this workload has self-loops.
	m := model.New(2)
	m.AddTransitionKeys(soloStateKey(a), soloStateKey(a))
	m.AddTransitionKeys(soloStateKey(b), soloStateKey(b))
	ctrl := NewController(model.Compile(m, 4))
	dog := NewWatchdog(ctrl, WatchdogConfig{Window: 8, MinGateSamples: 1})

	wv := uint64(0)
	for i := 0; i < 64; i++ {
		p := a
		if i%2 == 1 {
			p = b
		}
		dog.Arrive(p)
		wv++
		dog.TxCommit(p, wv, 0)
	}
	if dog.Tripped() {
		t.Fatal("watchdog tripped on a healthy model")
	}
	if s := dog.Snapshot(); s.EscapeRate != 0 || s.Trips != 0 {
		t.Fatalf("snapshot = %+v, want zero escapes and trips", s)
	}
}

// TestWatchdogTripReason verifies the typed trip-reason record: window
// rates, thresholds, firing causes, and the injected-clock timestamp.
func TestWatchdogTripReason(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	ctrl := NewController(adversarialTable([]txid.Pair{a, b, c}, pairOf(9, 9)), WithGateRetries(1))
	fakeNow := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	dog := NewWatchdog(ctrl, WatchdogConfig{
		Window:         4,
		MinGateSamples: 1,
		MaxEscapeRate:  0.5,
		MaxAbortRate:   0.1,
		Clock:          func() time.Time { return fakeNow },
	})

	if dog.Snapshot().LastTrip != nil {
		t.Fatal("LastTrip non-nil before any trip")
	}
	wv := uint64(0)
	commit := func(p txid.Pair) { wv++; dog.TxCommit(p, wv, 0) }
	commit(a)
	commit(b)
	dog.Arrive(c) // escapes (retries=1)
	dog.TxAbort(c, wv, b, true)
	commit(b) // closes the 4-event window: escape rate 1.0, abort rate 0.25

	if !dog.Tripped() {
		t.Fatal("watchdog did not trip")
	}
	r := dog.Snapshot().LastTrip
	if r == nil {
		t.Fatal("LastTrip nil after trip")
	}
	if !r.At.Equal(fakeNow) {
		t.Fatalf("At = %v, want injected clock %v", r.At, fakeNow)
	}
	if r.Window != 4 || r.GateSamples != 1 {
		t.Fatalf("window/samples = %d/%d, want 4/1", r.Window, r.GateSamples)
	}
	if r.EscapeRate != 1.0 || r.AbortRate != 0.25 {
		t.Fatalf("escape/abort rate = %v/%v, want 1.0/0.25", r.EscapeRate, r.AbortRate)
	}
	if r.MaxEscapeRate != 0.5 || r.MaxAbortRate != 0.1 {
		t.Fatalf("thresholds = %v/%v", r.MaxEscapeRate, r.MaxAbortRate)
	}
	if len(r.Causes) != 2 {
		t.Fatalf("causes = %v, want escape-rate and abort-rate", r.Causes)
	}
	s := r.String()
	for _, want := range []string{"escape-rate 1.00>0.50", "abort-rate 0.25>0.10", "window=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestWatchdogTelemetryEvents verifies trips and re-arms land in the
// attached Metrics: counters plus ring events carrying the trip reason.
func TestWatchdogTelemetryEvents(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	tel := telemetry.NewDetached("guide-test")
	ctrl := NewController(adversarialTable([]txid.Pair{a, b, c}, pairOf(9, 9)),
		WithGateRetries(1), WithTelemetry(tel))
	dog := NewWatchdog(ctrl, WatchdogConfig{Window: 4, MinGateSamples: 1, MaxEscapeRate: 0.5, Cooldown: 3})

	wv := uint64(0)
	commit := func(p txid.Pair) { wv++; dog.TxCommit(p, wv, 0) }
	commit(a)
	commit(b)
	for i := 0; i < 2; i++ {
		dog.Arrive(c)
		commit(b)
	}
	for i := 0; i < 3; i++ { // cooldown → re-arm
		commit(b)
	}
	snap := tel.Snapshot()
	if snap.WatchdogTrips != 1 || snap.WatchdogRearms != 1 {
		t.Fatalf("telemetry trips/rearms = %d/%d, want 1/1", snap.WatchdogTrips, snap.WatchdogRearms)
	}
	if snap.GateEscaped != 2 {
		t.Fatalf("gate escapes = %d, want 2", snap.GateEscaped)
	}
	if snap.GateHoldTime.Count != 2 {
		t.Fatalf("gate hold-time samples = %d, want 2 (escapes were first held)", snap.GateHoldTime.Count)
	}
	if len(snap.GateStates) == 0 {
		t.Fatal("no per-state gate telemetry recorded")
	}
	var sawTrip bool
	for _, ev := range snap.Events {
		if ev.Kind == telemetry.KindWatchdogTrip && strings.Contains(ev.Detail, "escape-rate") {
			sawTrip = true
		}
	}
	if !sawTrip {
		t.Fatalf("no trip event with reason in ring: %+v", snap.Events)
	}
}

// TestCheckCountsDecisionsAndTrips drives guidance the way a caller with a
// queue does — Check never waits and books one decision per call — on the
// adversarial table: Check refuses every real pair in a known state, its
// escapes trip the watchdog, and from then on every pair passes uncounted.
func TestCheckCountsDecisionsAndTrips(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	ctrl := NewController(adversarialTable([]txid.Pair{a, b, c}, pairOf(9, 9)))
	w := NewWatchdog(ctrl, WatchdogConfig{Window: 8, MinGateSamples: 2, MaxEscapeRate: 0.25})
	if o := w.Check(c); o != telemetry.GatePass {
		t.Fatalf("no state yet, but Check said %v", o)
	}
	w.TxCommit(a, 1, 0)
	w.TxCommit(b, 2, 0) // latest state {<b1>}: only the ghost is admitted
	for i := 0; i < 6; i++ {
		if o := w.Check(c); o != telemetry.GateEscape {
			t.Fatalf("Check took a pair outside every destination set: %v", o)
		}
		w.TxCommit(b, uint64(3+i), 0)
	}
	if !w.Tripped() {
		t.Fatalf("6 escapes in 7 decisions did not trip the watchdog: %+v", w.Snapshot())
	}
	if p, h, e := ctrl.GateStats(); p != 1 || h != 0 || e != 6 {
		t.Fatalf("GateStats = %d/%d/%d, want 1/0/6", p, h, e)
	}
	if o := w.Check(c); o != telemetry.GatePass {
		t.Fatalf("a tripped watchdog's Check said %v", o)
	}
	if p, _, e := ctrl.GateStats(); p != 1 || e != 6 {
		t.Fatalf("a tripped watchdog's Check counted a decision (%d passed, %d escaped)", p, e)
	}
}
