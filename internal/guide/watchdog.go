package guide

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

// Watchdog defaults (see WatchdogConfig).
const (
	DefaultWatchdogWindow     = 512
	DefaultWatchdogMinSamples = 32
	DefaultMaxEscapeRate      = 0.25
)

// WatchdogConfig tunes the guidance watchdog, the runtime analogue of the
// paper's offline model rejection: where the analyzer rejects unguidable
// models (ssca2) before execution, the watchdog detects a model that is
// degrading execution *while* guiding it and trips guidance into
// pass-through mode.
type WatchdogConfig struct {
	// Window is how many commit/abort events form one evaluation window.
	// Zero selects DefaultWatchdogWindow.
	Window int

	// MinGateSamples is the minimum number of gate decisions inside a
	// window before the escape/hold rates are considered meaningful; with
	// fewer, the window is inconclusive and no trip happens. Zero selects
	// DefaultWatchdogMinSamples.
	MinGateSamples int

	// MaxEscapeRate trips the breaker when more than this fraction of the
	// window's gate arrivals were forced through by the K-retry escape
	// hatch — the signature of a model whose destination sets no longer
	// match the running workload (every hold is wasted delay). Under Check
	// an escape is a pair the model refused at first sight, so the rate is
	// the model's miss rate and nothing waited. Zero selects
	// DefaultMaxEscapeRate; negative disables the check.
	MaxEscapeRate float64

	// MaxHoldRate, when positive, trips the breaker when more than this
	// fraction of gate arrivals were delayed at least once.
	MaxHoldRate float64

	// MaxAbortRate, when positive, trips the breaker when more than this
	// fraction of the window's events were aborts. High-contention
	// workloads legitimately run hot, so this check is opt-in.
	MaxAbortRate float64

	// Cooldown, when positive, re-arms guidance after that many events in
	// pass-through mode, giving the model another chance (the workload may
	// have left the phase that confused it). Zero means a trip is final.
	Cooldown int

	// Clock supplies the timestamps stamped onto trip reasons. Nil selects
	// time.Now; tests inject a fake clock for deterministic reasons.
	Clock func() time.Time
}

func (c WatchdogConfig) normalize() WatchdogConfig {
	if c.Window <= 0 {
		c.Window = DefaultWatchdogWindow
	}
	if c.MinGateSamples <= 0 {
		c.MinGateSamples = DefaultWatchdogMinSamples
	}
	if c.MaxEscapeRate == 0 {
		c.MaxEscapeRate = DefaultMaxEscapeRate
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// TripReason is the full diagnostic record of one watchdog trip: the window
// rates at the moment of the trip, the thresholds they were judged against,
// and which checks fired. Retrieved via WatchdogSnapshot.LastTrip.
type TripReason struct {
	// At is the trip time per the configured Clock.
	At time.Time

	// Window and GateSamples size the evidence: how many commit/abort
	// events the closed window held and how many gate decisions fell in it.
	Window      int
	GateSamples int

	// Observed window rates (see WatchdogSnapshot).
	EscapeRate float64
	HoldRate   float64
	AbortRate  float64

	// Configured thresholds the rates were compared to (≤0 = check disabled).
	MaxEscapeRate float64
	MaxHoldRate   float64
	MaxAbortRate  float64

	// Causes lists the checks that fired, e.g. "escape-rate 0.40>0.25".
	// At least one entry; multiple when several thresholds tripped at once.
	Causes []string
}

// String renders the reason compactly for logs and ring events.
func (r TripReason) String() string {
	return fmt.Sprintf("%s (window=%d gate=%d)",
		strings.Join(r.Causes, ", "), r.Window, r.GateSamples)
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
	State  WatchdogState
	Trips  uint64 // armed → tripped transitions so far
	Rearms uint64 // tripped → armed transitions so far

	// Rates from the last completed evaluation window (0 until one
	// completes with enough samples).
	EscapeRate float64 // escaped / gate decisions
	HoldRate   float64 // (held + escaped) / gate decisions
	AbortRate  float64 // aborts / events

	// LastTrip is the diagnostic record of the most recent trip, nil until
	// the first trip. The pointee is immutable once published.
	LastTrip *TripReason
}

// Watchdog wraps a Controller as a circuit breaker: it stays on the gate
// and sink paths permanently, delegating to the controller while armed and
// short-circuiting the gate while tripped (events still flow to the
// controller so its current-state tracking stays warm for a re-arm).
//
// Install the Watchdog — not the inner controller — as both the runtime's
// Gate and EventSink, or as the EventSink with callers asking Check.
type Watchdog struct {
	ctrl *Controller
	cfg  WatchdogConfig

	tripped atomic.Bool // read on every Arrive; the hot flag

	mu           sync.Mutex
	winEvents    int
	winAborts    int
	basePassed   uint64
	baseHeld     uint64
	baseEscaped  uint64
	escRate      float64
	holdRate     float64
	abortRate    float64
	trips        uint64
	rearms       uint64
	cooldownLeft int
	lastTrip     *TripReason
}

// NewWatchdog returns a Watchdog guarding ctrl under cfg (zero fields
// defaulted).
func NewWatchdog(ctrl *Controller, cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{ctrl: ctrl, cfg: cfg.normalize()}
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
		Rearms:     w.rearms,
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
func (w *Watchdog) TxAbort(p txid.Pair, byWV uint64, by txid.Pair, byKnown bool) {
	w.ctrl.TxAbort(p, byWV, by, byKnown)
	w.observe(true)
}

// observe advances the sliding window by one event and runs the breaker
// logic at window boundaries (armed) or the cooldown countdown (tripped).
func (w *Watchdog) observe(abort bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.winEvents++
	if abort {
		w.winAborts++
	}
	if w.tripped.Load() {
		if w.cfg.Cooldown > 0 {
			w.cooldownLeft--
			if w.cooldownLeft <= 0 {
				w.rearmLocked()
			}
		}
		return
	}
	if w.winEvents >= w.cfg.Window {
		w.evaluateLocked()
	}
}

// evaluateLocked closes the current window: computes the three rates,
// trips the breaker when any enabled threshold is exceeded, and opens a
// fresh window. Called with mu held.
func (w *Watchdog) evaluateLocked() {
	p, h, e := w.ctrl.GateStats()
	dp, dh, de := p-w.basePassed, h-w.baseHeld, e-w.baseEscaped
	gateTotal := dp + dh + de

	w.abortRate = float64(w.winAborts) / float64(w.winEvents)
	var causes []string
	if gateTotal >= uint64(w.cfg.MinGateSamples) {
		w.escRate = float64(de) / float64(gateTotal)
		w.holdRate = float64(dh+de) / float64(gateTotal)
		if w.cfg.MaxEscapeRate > 0 && w.escRate > w.cfg.MaxEscapeRate {
			causes = append(causes, fmt.Sprintf("escape-rate %.2f>%.2f", w.escRate, w.cfg.MaxEscapeRate))
		}
		if w.cfg.MaxHoldRate > 0 && w.holdRate > w.cfg.MaxHoldRate {
			causes = append(causes, fmt.Sprintf("hold-rate %.2f>%.2f", w.holdRate, w.cfg.MaxHoldRate))
		}
	}
	if w.cfg.MaxAbortRate > 0 && w.abortRate > w.cfg.MaxAbortRate {
		causes = append(causes, fmt.Sprintf("abort-rate %.2f>%.2f", w.abortRate, w.cfg.MaxAbortRate))
	}
	if len(causes) > 0 {
		reason := &TripReason{
			At:            w.cfg.Clock(),
			Window:        w.winEvents,
			GateSamples:   int(gateTotal),
			EscapeRate:    w.escRate,
			HoldRate:      w.holdRate,
			AbortRate:     w.abortRate,
			MaxEscapeRate: w.cfg.MaxEscapeRate,
			MaxHoldRate:   w.cfg.MaxHoldRate,
			MaxAbortRate:  w.cfg.MaxAbortRate,
			Causes:        causes,
		}
		w.tripped.Store(true)
		w.trips++
		w.cooldownLeft = w.cfg.Cooldown
		w.lastTrip = reason
		w.ctrl.tel.WatchdogTrip(w.currentStateKey(), reason.String())
	}
	w.winEvents, w.winAborts = 0, 0
	w.basePassed, w.baseHeld, w.baseEscaped = p, h, e
}

// rearmLocked closes pass-through mode and resumes guidance with a fresh
// window. Called with mu held.
func (w *Watchdog) rearmLocked() {
	w.tripped.Store(false)
	w.rearms++
	w.winEvents, w.winAborts = 0, 0
	w.basePassed, w.baseHeld, w.baseEscaped = w.ctrl.GateStats()
	w.ctrl.tel.WatchdogRearm(w.currentStateKey())
}

// currentStateKey returns the controller's tracked state key for event
// annotation, or "" before the first commit.
func (w *Watchdog) currentStateKey() string {
	k, ok := w.ctrl.CurrentState()
	if !ok {
		return ""
	}
	return string(k)
}
