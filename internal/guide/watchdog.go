package guide

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

// The guidance watchdog is the runtime analogue of the paper's offline
// model rejection: where the analyzer rejects unguidable models (ssca2)
// before execution, the watchdog detects a model that is degrading execution
// *while* guiding it and trips guidance into pass-through mode. Its
// thresholds are fixed.
const (
	// watchdogWindow is how many commit/abort events form one evaluation
	// window.
	watchdogWindow = 512

	// watchdogMinGateSamples is the minimum number of gate decisions inside
	// a window before its rates are considered meaningful; with fewer, the
	// window is inconclusive and no trip happens.
	watchdogMinGateSamples = 32

	// watchdogMaxEscapeRate trips the breaker when more than this fraction
	// of the window's gate decisions were forced through by the K-retry
	// escape hatch — the signature of a model whose destination sets no
	// longer match the running workload (every hold is wasted delay). Under
	// Check an escape is a pair the model refused at first sight, so the
	// rate is the model's miss rate and nothing waited.
	watchdogMaxEscapeRate = 0.25
)

// TripReason is the diagnostic record of one watchdog trip: the window it
// judged and the rates observed in it. Retrieved via
// WatchdogSnapshot.LastTrip.
type TripReason struct {
	// At is the trip time.
	At time.Time

	// Window and GateSamples size the evidence: how many commit/abort
	// events the closed window held and how many gate decisions fell in it.
	Window      int
	GateSamples int

	// Observed window rates (see WatchdogSnapshot).
	EscapeRate float64
	HoldRate   float64
	AbortRate  float64
}

// String renders the reason compactly for logs and reports.
func (r TripReason) String() string {
	return fmt.Sprintf("escape-rate %.2f>%.2f (window=%d gate=%d)",
		r.EscapeRate, watchdogMaxEscapeRate, r.Window, r.GateSamples)
}

// WatchdogState is the breaker position.
type WatchdogState int

// Watchdog states.
const (
	// WatchdogArmed: guidance active, windows being evaluated.
	WatchdogArmed WatchdogState = iota
	// WatchdogTripped: guidance suspended, every arrival passes through.
	WatchdogTripped
)

func (s WatchdogState) String() string {
	if s == WatchdogTripped {
		return "tripped"
	}
	return "armed"
}

// WatchdogSnapshot is a point-in-time view of the watchdog for health
// reporting.
type WatchdogSnapshot struct {
	State WatchdogState
	Trips uint64 // armed → tripped transitions so far (0 or 1: a trip is final)

	// Rates from the last completed evaluation window (0 until one
	// completes with enough samples).
	EscapeRate float64 // escaped / gate decisions
	HoldRate   float64 // (held + escaped) / gate decisions
	AbortRate  float64 // aborts / events

	// LastTrip is the diagnostic record of the trip, nil until it happens.
	// The pointee is immutable once published.
	LastTrip *TripReason
}

// Watchdog wraps a Controller as a circuit breaker: it stays on the gate
// and sink paths permanently, delegating to the controller while armed and
// short-circuiting the gate once tripped (events still flow to the
// controller, so CurrentState stays current). A trip is final.
//
// Install the Watchdog — not the inner controller — as both the runtime's
// Gate and EventSink, or as the EventSink with callers asking Check.
type Watchdog struct {
	ctrl *Controller

	tripped atomic.Bool // read on every Arrive; the hot flag

	mu          sync.Mutex
	winEvents   int
	winAborts   int
	basePassed  uint64
	baseHeld    uint64
	baseEscaped uint64
	escRate     float64
	holdRate    float64
	abortRate   float64
	trips       uint64
	lastTrip    *TripReason
}

// NewWatchdog returns a Watchdog guarding ctrl.
func NewWatchdog(ctrl *Controller) *Watchdog {
	w := &Watchdog{ctrl: ctrl}
	w.basePassed, w.baseHeld, w.baseEscaped = ctrl.GateStats()
	return w
}

// Controller returns the guarded controller.
func (w *Watchdog) Controller() *Controller { return w.ctrl }

// Tripped reports whether the breaker is currently open (pass-through).
func (w *Watchdog) Tripped() bool { return w.tripped.Load() }

// Snapshot returns the current watchdog state and window rates.
func (w *Watchdog) Snapshot() WatchdogSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := WatchdogSnapshot{
		State:      WatchdogArmed,
		Trips:      w.trips,
		EscapeRate: w.escRate,
		HoldRate:   w.holdRate,
		AbortRate:  w.abortRate,
		LastTrip:   w.lastTrip,
	}
	if w.tripped.Load() {
		s.State = WatchdogTripped
	}
	return s
}

// Arrive implements the gate: pass-through while tripped, guided otherwise.
func (w *Watchdog) Arrive(p txid.Pair) telemetry.GateOutcome {
	if w.tripped.Load() {
		return telemetry.GatePass
	}
	return w.ctrl.Arrive(p)
}

// Check is the controller's Check while armed; tripped, every pair passes
// and, as with the pass-through Arrive, nothing is counted.
func (w *Watchdog) Check(p txid.Pair) telemetry.GateOutcome {
	if w.tripped.Load() {
		return telemetry.GatePass
	}
	return w.ctrl.Check(p)
}

// TxCommit implements the event sink: state tracking first, then window
// accounting.
func (w *Watchdog) TxCommit(p txid.Pair, wv uint64, aborts int) {
	w.ctrl.TxCommit(p, wv, aborts)
	w.observe(false)
}

// TxAbort implements the event sink.
func (w *Watchdog) TxAbort(p txid.Pair, byWV uint64, known bool) {
	w.ctrl.TxAbort(p, byWV, known)
	w.observe(true)
}

// observe advances the window by one event and judges it at the window
// boundary. A tripped watchdog judges nothing more.
func (w *Watchdog) observe(abort bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.tripped.Load() {
		return
	}
	w.winEvents++
	if abort {
		w.winAborts++
	}
	if w.winEvents >= watchdogWindow {
		w.evaluateLocked()
	}
}

// evaluateLocked closes the current window: computes the three rates,
// trips the breaker when a conclusive window's escape rate exceeds the
// threshold, and opens a fresh window. Called with mu held.
func (w *Watchdog) evaluateLocked() {
	p, h, e := w.ctrl.GateStats()
	dp, dh, de := p-w.basePassed, h-w.baseHeld, e-w.baseEscaped
	gateTotal := dp + dh + de

	w.abortRate = float64(w.winAborts) / float64(w.winEvents)
	if gateTotal >= watchdogMinGateSamples {
		w.escRate = float64(de) / float64(gateTotal)
		w.holdRate = float64(dh+de) / float64(gateTotal)
		if w.escRate > watchdogMaxEscapeRate {
			reason := &TripReason{
				At:          time.Now(),
				Window:      w.winEvents,
				GateSamples: int(gateTotal),
				EscapeRate:  w.escRate,
				HoldRate:    w.holdRate,
				AbortRate:   w.abortRate,
			}
			w.tripped.Store(true)
			w.trips++
			w.lastTrip = reason
			w.ctrl.tel.WatchdogTrip()
		}
	}
	w.winEvents, w.winAborts = 0, 0
	w.basePassed, w.baseHeld, w.baseEscaped = p, h, e
}
