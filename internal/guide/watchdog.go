package guide

import (
	"fmt"
	"time"
)

// The guidance watchdog is the runtime analogue of the paper's offline
// model rejection: where the analyzer rejects unguidable models (ssca2)
// before execution, the watchdog detects a model that is degrading execution
// *while* guiding it and trips guidance into pass-through mode. It is part
// of the Controller, armed WithWatchdog. Its thresholds are fixed.
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
// reporting (Controller.Watchdog).
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

// WithWatchdog arms the controller's watchdog: a circuit breaker that
// judges the event stream in windows of watchdogWindow commits and aborts
// and, once a window's escape rate is too high, trips the controller into
// pass-through for good. Events still update the tracked state after a trip,
// so CurrentState stays current.
func WithWatchdog() Option {
	return func(c *Controller) { c.armed = true }
}

// watchdog is the breaker's window state, guarded by Controller.mu.
type watchdog struct {
	winEvents   int
	winAborts   int
	basePassed  uint64
	baseHeld    uint64
	baseEscaped uint64
	escRate     float64
	holdRate    float64
	abortRate   float64
	lastTrip    *TripReason // non-nil once tripped
}

// Tripped reports whether the watchdog has tripped the controller into
// pass-through. An unarmed controller never trips.
func (c *Controller) Tripped() bool { return c.tripped.Load() }

// Watchdog returns the watchdog's state and window rates, and whether the
// controller is armed at all (WithWatchdog).
func (c *Controller) Watchdog() (WatchdogSnapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &c.wd
	s := WatchdogSnapshot{
		EscapeRate: w.escRate,
		HoldRate:   w.holdRate,
		AbortRate:  w.abortRate,
		LastTrip:   w.lastTrip,
	}
	if w.lastTrip != nil {
		s.State, s.Trips = WatchdogTripped, 1
	}
	return s, c.armed
}

// observeLocked advances an armed controller's window by one event and
// judges it at the window boundary. A tripped controller judges nothing
// more. Called with mu held.
func (c *Controller) observeLocked(abort bool) {
	if !c.armed || c.tripped.Load() {
		return
	}
	w := &c.wd
	w.winEvents++
	if abort {
		w.winAborts++
	}
	if w.winEvents >= watchdogWindow {
		c.evaluateLocked()
	}
}

// evaluateLocked closes the current window: computes the three rates,
// trips the breaker when a conclusive window's escape rate exceeds the
// threshold, and opens a fresh window. Called with mu held.
func (c *Controller) evaluateLocked() {
	w := &c.wd
	p, h, e := c.GateStats()
	dp, dh, de := p-w.basePassed, h-w.baseHeld, e-w.baseEscaped
	gateTotal := dp + dh + de

	w.abortRate = float64(w.winAborts) / float64(w.winEvents)
	if gateTotal >= watchdogMinGateSamples {
		w.escRate = float64(de) / float64(gateTotal)
		w.holdRate = float64(dh+de) / float64(gateTotal)
		if w.escRate > watchdogMaxEscapeRate {
			w.lastTrip = &TripReason{
				At:          time.Now(),
				Window:      w.winEvents,
				GateSamples: int(gateTotal),
				EscapeRate:  w.escRate,
				HoldRate:    w.holdRate,
				AbortRate:   w.abortRate,
			}
			c.tripped.Store(true)
		}
	}
	w.winEvents, w.winAborts = 0, 0
	w.basePassed, w.baseHeld, w.baseEscaped = p, h, e
}
