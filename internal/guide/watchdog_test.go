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

// sink counts the commit/abort events it feeds a controller, so a test can
// close a watchdog window at a known event.
type sink struct {
	ctrl   *Controller
	wv     uint64
	events int
}

// snap returns the controller's watchdog snapshot.
func (s *sink) snap() WatchdogSnapshot {
	w, _ := s.ctrl.Watchdog()
	return w
}

func (s *sink) commit(p txid.Pair) {
	s.wv++
	s.events++
	s.ctrl.TxCommit(p, s.wv, 0)
}

// abort reports an abort against no known commit, leaving the tracked
// state as it is.
func (s *sink) abort(p txid.Pair) {
	s.events++
	s.ctrl.TxAbort(p, 0, false)
}

// fill commits p until the sink has fed n events.
func (s *sink) fill(p txid.Pair, n int) {
	for s.events < n {
		s.commit(p)
	}
}

// TestWatchdogFixedThresholds pins the breaker's three constants by
// driving the sink directly: a window is 512 events, fewer than 32 gate
// decisions leave it inconclusive, and only an escape rate above 0.25
// trips. Each window below is built so a different value of any constant
// changes the outcome.
func TestWatchdogFixedThresholds(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	// In state {<b1>} the model admits a and refuses c, so Check(a) passes
	// and Check(c) escapes.
	m := model.New(3)
	m.AddTransitionKeys(soloStateKey(b), soloStateKey(a))
	table := model.Compile(m, 4)

	// window feeds one 512-event window to s with the given gate decisions
	// and aborts, and reports whether the watchdog tripped. It fails the
	// test if the window closed (tripped) before its 512th event.
	window := func(s *sink, escapes, passes, aborts int) bool {
		t.Helper()
		start := s.events
		s.commit(b) // the pending commit all decisions judge: {<b1>}
		for i := 0; i < escapes; i++ {
			if o := s.ctrl.Check(c); o != telemetry.GateEscape {
				t.Fatalf("Check(c) = %v, want escape", o)
			}
		}
		for i := 0; i < passes; i++ {
			if o := s.ctrl.Check(a); o != telemetry.GatePass {
				t.Fatalf("Check(a) = %v, want pass", o)
			}
		}
		for i := 0; i < aborts; i++ {
			s.abort(c)
		}
		s.fill(b, start+511)
		if s.ctrl.Tripped() {
			t.Fatalf("tripped after %d events of a 512-event window", s.events-start)
		}
		s.commit(b)
		return s.ctrl.Tripped()
	}
	newSink := func(tel *telemetry.Metrics) *sink {
		return &sink{ctrl: NewController(table, WithTelemetry(tel), WithWatchdog())}
	}

	tel := telemetry.NewDetached("watchdog-thresholds")
	s := newSink(tel)
	if window(s, 31, 0, 0) {
		t.Fatal("31 gate decisions, all escapes, tripped: the window must be inconclusive")
	}
	if snap := s.snap(); snap.EscapeRate != 0 {
		t.Fatalf("inconclusive window set the escape rate to %v", snap.EscapeRate)
	}
	if window(s, 2500, 7500, 0) {
		t.Fatal("escape rate exactly 0.25 tripped")
	}
	if snap := s.snap(); snap.EscapeRate != 0.25 || snap.Trips != 0 {
		t.Fatalf("snapshot after a 0.25 window = %+v", snap)
	}
	if !window(s, 2501, 7499, 0) {
		t.Fatal("escape rate 0.2501 did not trip")
	}
	r := s.snap().LastTrip
	if r == nil || r.Window != 512 || r.GateSamples != 10000 || r.EscapeRate != 0.2501 {
		t.Fatalf("trip reason = %+v, want window 512, 10000 decisions, escape rate 0.2501", r)
	}

	// A trip is final: ten more healthy windows leave it tripped, its
	// reason unchanged, and telemetry counts the one trip.
	for i := 0; i < 10; i++ {
		s.fill(b, s.events+512)
	}
	if snap := s.snap(); snap.State != WatchdogTripped || snap.Trips != 1 || snap.LastTrip != r {
		t.Fatalf("after ten more windows: %+v, want tripped once with reason %+v", snap, r)
	}
	if got := tel.Snapshot().WatchdogTrips; got != 1 {
		t.Fatalf("telemetry trips = %d, want 1", got)
	}

	// Exactly 32 decisions are conclusive; aborts do not enter the verdict.
	s = newSink(telemetry.NewDetached("watchdog-min-samples"))
	if !window(s, 9, 23, 128) {
		t.Fatal("9 escapes in 32 decisions did not trip")
	}
	if r := s.snap().LastTrip; r.GateSamples != 32 || r.AbortRate != 0.25 {
		t.Fatalf("trip reason = %+v, want 32 decisions and abort rate 0.25", r)
	}
	s = newSink(telemetry.NewDetached("watchdog-aborts"))
	if window(s, 0, 32, 500) {
		t.Fatal("a window of aborts with no escapes tripped")
	}
}

// TestWatchdogTripsOnEscapeRate drives an adversarial model: every gate
// arrival escapes, so the first full window must trip the breaker into
// pass-through mode.
func TestWatchdogTripsOnEscapeRate(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	ghost := pairOf(9, 9)
	ctrl := NewController(adversarialTable([]txid.Pair{a, b, c}, ghost), WithGateRetries(2), WithWatchdog())
	s := &sink{ctrl: ctrl}

	// Two commits establish a tracked current state (key {<a>}).
	s.commit(a)
	s.commit(b)
	if k, ok := ctrl.CurrentState(); !ok || k != soloStateKey(a) {
		t.Fatalf("current state not established: %q ok=%v", k, ok)
	}

	// Arrivals by a disallowed pair, then enough events to close the
	// window with a 100% escape rate.
	for i := 0; i < 40; i++ {
		s.ctrl.Arrive(c) // held twice, then forced through
		s.commit(b)
	}
	s.fill(b, 512)
	if !s.ctrl.Tripped() {
		t.Fatal("watchdog did not trip on 100% escape rate")
	}
	snap := s.snap()
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
		s.ctrl.Arrive(c)
	}
	if p1, h1, e1 := ctrl.GateStats(); p1 != p0 || h1 != h0 || e1 != e0 {
		t.Fatalf("tripped watchdog still consulted the gate: %d/%d/%d → %d/%d/%d", p0, h0, e0, p1, h1, e1)
	}
	// The trip is final.
	s.fill(b, 2048)
	if !s.ctrl.Tripped() {
		t.Fatal("watchdog re-armed")
	}
	// Tripped, the controller still tracks the state: the next commit
	// finalizes the one before it.
	s.commit(a)
	s.commit(c)
	if k, ok := ctrl.CurrentState(); !ok || k != soloStateKey(a) {
		t.Fatalf("state after a trip = %q ok=%v, want %q", k, ok, soloStateKey(a))
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
	s := &sink{ctrl: NewController(model.Compile(m, 4), WithWatchdog())}

	for i := 0; i < 4*512; i++ {
		p := a
		if i%2 == 1 {
			p = b
		}
		s.ctrl.Arrive(p)
		s.commit(p)
	}
	if s.ctrl.Tripped() {
		t.Fatal("watchdog tripped on a healthy model")
	}
	if snap := s.snap(); snap.EscapeRate != 0 || snap.Trips != 0 {
		t.Fatalf("snapshot = %+v, want zero escapes and trips", snap)
	}
}

// TestWatchdogTripReason verifies the typed trip-reason record: the
// window's size, its rates, and the trip's timestamp.
func TestWatchdogTripReason(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	ctrl := NewController(adversarialTable([]txid.Pair{a, b, c}, pairOf(9, 9)), WithGateRetries(1), WithWatchdog())
	s := &sink{ctrl: ctrl}

	if s.snap().LastTrip != nil {
		t.Fatal("LastTrip non-nil before any trip")
	}
	before := time.Now()
	s.commit(a)
	s.commit(b)
	for i := 0; i < 32; i++ {
		s.ctrl.Arrive(c) // escapes (retries=1)
	}
	for i := 0; i < 128; i++ {
		s.abort(c)
	}
	s.fill(b, 512) // closes the window: escape rate 1.0, abort rate 0.25
	after := time.Now()

	if !s.ctrl.Tripped() {
		t.Fatal("watchdog did not trip")
	}
	r := s.snap().LastTrip
	if r == nil {
		t.Fatal("LastTrip nil after trip")
	}
	if r.At.Before(before) || r.At.After(after) {
		t.Fatalf("At = %v, outside [%v, %v]", r.At, before, after)
	}
	if r.Window != 512 || r.GateSamples != 32 {
		t.Fatalf("window/samples = %d/%d, want 512/32", r.Window, r.GateSamples)
	}
	if r.EscapeRate != 1.0 || r.HoldRate != 1.0 || r.AbortRate != 0.25 {
		t.Fatalf("escape/hold/abort rate = %v/%v/%v, want 1.0/1.0/0.25", r.EscapeRate, r.HoldRate, r.AbortRate)
	}
	str := r.String()
	for _, want := range []string{"escape-rate 1.00>0.25", "window=512", "gate=32"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}

// TestWatchdogTelemetryEvents verifies a trip lands in the attached
// Metrics as the trip counter, with its reason in the watchdog's LastTrip.
func TestWatchdogTelemetryEvents(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	tel := telemetry.NewDetached("guide-test")
	ctrl := NewController(adversarialTable([]txid.Pair{a, b, c}, pairOf(9, 9)),
		WithGateRetries(1), WithTelemetry(tel), WithWatchdog())
	s := &sink{ctrl: ctrl}

	s.commit(a)
	s.commit(b)
	for i := 0; i < 32; i++ {
		s.ctrl.Arrive(c)
		s.commit(b)
	}
	s.fill(b, 512)
	snap := tel.Snapshot()
	if snap.WatchdogTrips != 1 {
		t.Fatalf("telemetry trips = %d, want 1", snap.WatchdogTrips)
	}
	if snap.GateEscaped != 32 {
		t.Fatalf("gate escapes = %d, want 32", snap.GateEscaped)
	}
	if snap.GateHoldTime.Count != 32 {
		t.Fatalf("gate hold-time samples = %d, want 32 (escapes were first held)", snap.GateHoldTime.Count)
	}
	if len(snap.GateStates) == 0 {
		t.Fatal("no per-state gate telemetry recorded")
	}
	if r := s.snap().LastTrip; r == nil || !strings.Contains(r.String(), "escape-rate") {
		t.Fatalf("trip reason = %v, want an escape-rate trip", r)
	}
}

// TestCheckCountsDecisionsAndTrips drives guidance the way a caller with a
// queue does — Check never waits and books one decision per call — on the
// adversarial table: Check refuses every real pair in a known state, its
// escapes trip the watchdog, and from then on every pair passes uncounted.
// Without WithWatchdog the same stream keeps being judged and counted.
func TestCheckCountsDecisionsAndTrips(t *testing.T) {
	a, b, c := pairOf(0, 0), pairOf(1, 1), pairOf(2, 2)
	table := adversarialTable([]txid.Pair{a, b, c}, pairOf(9, 9))
	ctrl := NewController(table, WithWatchdog())
	s := &sink{ctrl: ctrl}
	if o := s.ctrl.Check(c); o != telemetry.GatePass {
		t.Fatalf("no state yet, but Check said %v", o)
	}
	s.commit(a)
	s.commit(b) // latest state {<b1>}: only the ghost is admitted
	for i := 0; i < 40; i++ {
		if o := s.ctrl.Check(c); o != telemetry.GateEscape {
			t.Fatalf("Check took a pair outside every destination set: %v", o)
		}
		s.commit(b)
	}
	s.fill(b, 512)
	if !s.ctrl.Tripped() {
		t.Fatalf("40 escapes in 41 decisions did not trip the watchdog: %+v", s.snap())
	}
	if p, h, e := ctrl.GateStats(); p != 1 || h != 0 || e != 40 {
		t.Fatalf("GateStats = %d/%d/%d, want 1/0/40", p, h, e)
	}
	if o := s.ctrl.Check(c); o != telemetry.GatePass {
		t.Fatalf("a tripped watchdog's Check said %v", o)
	}
	if p, _, e := ctrl.GateStats(); p != 1 || e != 40 {
		t.Fatalf("a tripped watchdog's Check counted a decision (%d passed, %d escaped)", p, e)
	}

	// Unarmed, the same stream never trips: Check keeps refusing and
	// counting past the 512th event.
	u := &sink{ctrl: NewController(table)}
	u.commit(a)
	u.commit(b)
	for u.events < 2*512 {
		if o := u.ctrl.Check(c); o != telemetry.GateEscape {
			t.Fatalf("unarmed Check after %d events said %v, want escape", u.events, o)
		}
		u.commit(b)
	}
	if _, armed := u.ctrl.Watchdog(); armed || u.ctrl.Tripped() {
		t.Fatalf("unarmed controller: armed=%v tripped=%v", armed, u.ctrl.Tripped())
	}
	if p, h, e := u.ctrl.GateStats(); p != 0 || h != 0 || e != 2*512-2 {
		t.Fatalf("unarmed GateStats = %d/%d/%d, want 0/0/%d", p, h, e, 2*512-2)
	}
}
