package gstm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/telemetry"
	"gstm/internal/tl2"
	"gstm/internal/trace"
)

// Config parameterizes a System.
type Config struct {
	// Threads is the number of worker threads the application means to
	// use. Nothing reads it: Run accepts any ThreadID, and BuildModel takes
	// its own thread count.
	Threads int

	// Interleave, when positive, makes each transactional operation yield
	// the processor with probability 1/Interleave, forcing realistic
	// transaction interleaving on machines with fewer cores than worker
	// threads (see DESIGN.md). Zero disables forced yields.
	Interleave int

	// Label names the system's telemetry registration (default "tl2").
	// Sharded deployments label each shard distinctly so GatherTelemetry
	// and the /metrics endpoint can report per-shard series alongside the
	// aggregate.
	Label string

	// PrivateClock gives the system its own TL2 global version clock
	// instead of the process-wide one shared by default. Vars used under a
	// private-clock system must never be touched by transactions of
	// another system. The shard router sets this so unrelated transactions
	// stop contending on one clock cache line.
	PrivateClock bool
}

// WatchdogSnapshot is a point-in-time view of the watchdog, reported by
// System.Health.
type WatchdogSnapshot = guide.WatchdogSnapshot

// System is an STM instance together with its instrumentation and
// (optionally) a guidance controller — the paper's modified TL2 library.
type System struct {
	cfg Config
	rt  *tl2.Runtime

	mu        sync.Mutex
	collector *trace.Collector  // non-nil while profiling/measuring
	ctrl      *guide.Controller // the guidance controller, watchdog included
	schedSink tl2.EventSink     // the custom scheduler's observer, if any
	tap       tl2.EventSink     // persistent observer (WAL), survives hot-swaps

	// check is the controller when guidance is installed WithDequeueCheck;
	// nil otherwise. Read without mu, once per CheckDequeue.
	check atomic.Pointer[guide.Controller]
}

// Scheduler is consulted at every transaction start and may delay the
// caller; it must eventually return. Guided execution is one Scheduler;
// contention-manager policies (internal/cm) are others. Arrive reports how
// the transaction got through — GatePass (no delay), GateHold (delayed),
// GateEscape (forced through by an escape hatch) — which feeds the gate
// telemetry counters and the variance observatory's gate-phase spans.
type Scheduler = tl2.Gate

// GateOutcome is a Scheduler.Arrive result.
type GateOutcome = telemetry.GateOutcome

// GateOutcome values.
const (
	GatePass   = telemetry.GatePass
	GateHold   = telemetry.GateHold
	GateEscape = telemetry.GateEscape
)

// Observer receives the commit/abort event stream (see tl2.EventSink).
type Observer = tl2.EventSink

// NewSystem returns a System with cfg.
func NewSystem(cfg Config) *System {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	rt := tl2.New(tl2.Config{
		Interleave:   cfg.Interleave,
		Label:        cfg.Label,
		PrivateClock: cfg.PrivateClock,
	})
	return &System{cfg: cfg, rt: rt}
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// StartProfiling begins capturing the transaction sequence. It composes
// with guidance: when a guidance controller is installed the collector
// receives events through it, so guided runs can be measured too.
func (s *System) StartProfiling() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.collector = trace.NewCollector()
	s.installSinks()
}

// StopProfiling finalizes and returns the trace captured since
// StartProfiling, or nil when profiling was not active.
func (s *System) StopProfiling() *Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.collector == nil {
		return nil
	}
	tr := s.collector.Finalize()
	s.collector = nil
	s.installSinks()
	return tr
}

// EnableGuidance validates m, compiles it into a guide table and installs
// the guided-execution gate. It returns ErrGuidanceRejected (wrapped with
// the analyzer's reason) when the model fails validation. Options use
// With* constructors like Run's: WithTfactor, WithGateRetries, WithWatchdog,
// WithDequeueCheck.
func (s *System) EnableGuidance(m *Model, opts ...GuidanceOption) error {
	set := applyGuidanceOptions(opts)
	an := model.DefaultAnalyzer()
	if set.tfactor > 0 {
		an.Tfactor = set.tfactor
	}
	rep := an.Analyze(m)
	if !rep.Guidable {
		return fmt.Errorf("%w: %s", ErrGuidanceRejected, rep.Reason)
	}
	s.forceGuidance(m, set)
	return nil
}

// ForceGuidance installs guidance without analyzer validation, for
// experiments that deliberately guide unguidable workloads (the paper's
// ssca2 degradation measurements).
func (s *System) ForceGuidance(m *Model, opts ...GuidanceOption) {
	s.forceGuidance(m, applyGuidanceOptions(opts))
}

func (s *System) forceGuidance(m *Model, set guidanceSettings) {
	table := model.Compile(m, set.tfactor)
	gopts := []guide.Option{guide.WithTelemetry(s.rt.Telemetry())}
	if set.gateRetries > 0 {
		gopts = append(gopts, guide.WithGateRetries(set.gateRetries))
	}
	if set.watchdog {
		gopts = append(gopts, guide.WithWatchdog())
	}
	ctrl := guide.NewController(table, gopts...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctrl = ctrl
	s.schedSink = nil
	s.installSinks()
	// The controller goes on the transaction-start gate or, dequeue set,
	// behind CheckDequeue with no gate.
	if set.dequeue {
		s.rt.SetGate(nil)
		s.check.Store(ctrl)
		return
	}
	s.check.Store(nil)
	s.rt.SetGate(ctrl)
}

// CheckDequeue judges pair p, work the caller is about to run whatever the
// answer, without waiting, against the automaton's newest state — the last
// commit with the aborts reported against it so far — and counts the
// decision like a gate arrival: GatePass when p lies in a high-probability
// destination (or no known state has been reached yet), GateEscape when it
// does not. Under a tripped watchdog every pair passes
// and nothing is counted. ok is false when no guidance is installed
// WithDequeueCheck — unguided, gated, or a custom scheduler — at the cost of
// one atomic load.
func (s *System) CheckDequeue(p Pair) (o GateOutcome, ok bool) {
	c := s.check.Load()
	if c == nil {
		return GatePass, false
	}
	return c.Check(p), true
}

// DisableGuidance removes the guided-execution gate (and its watchdog).
func (s *System) DisableGuidance() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctrl = nil
	s.rt.SetGate(nil)
	s.check.Store(nil)
	s.installSinks()
}

// SetScheduler installs a custom transaction-start scheduler (for example
// a contention-manager policy) with an optional event observer. It
// replaces any guidance controller; pass (nil, nil) to remove. Profiling
// composes: the observer and an active collector both receive events.
func (s *System) SetScheduler(gate Scheduler, obs Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctrl = nil
	s.check.Store(nil)
	s.schedSink = obs
	if gate == nil {
		s.rt.SetGate(nil)
	} else {
		s.rt.SetGate(gate)
	}
	s.installSinks()
}

// Guided reports whether a guidance controller is installed.
func (s *System) Guided() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrl != nil
}

// SetTap installs (or, with nil, removes) a persistent event observer that
// is fenced across guidance hot-swaps: every installSinks rewiring —
// profiling start/stop, guidance install/disable, scheduler swaps — keeps
// the tap in the delivery chain, after the scheduler's observer and the
// collector. The durability layer hangs its write-ahead log here, so no
// lifecycle transition can silently drop commits from the log. The tap
// also pins the unique-wv clock discipline: with any sink installed every
// commit draws its own write version (see tl2.Runtime.Clock).
func (s *System) SetTap(obs Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tap = obs
	s.installSinks()
}

// Clock returns the system's current version-clock value (see
// tl2.Runtime.Clock for its semantics with and without sinks).
func (s *System) Clock() uint64 { return s.rt.Clock() }

// AdvanceClock raises the system's version clock to at least v; crash
// recovery uses it to move past the last durable commit before serving.
func (s *System) AdvanceClock(v uint64) { s.rt.AdvanceClock(v) }

// installSinks wires the event stream: the active scheduler's observer (a
// guidance controller needs events for state tracking and its watchdog's
// windows) first, then the collector when profiling, then the persistent
// tap. Called with mu held.
func (s *System) installSinks() {
	first := s.schedSink
	if s.ctrl != nil {
		first = s.ctrl
	}
	var chain multiSink
	for _, sink := range []tl2.EventSink{first, sinkOrNil(s.collector), s.tap} {
		if sink != nil {
			chain = append(chain, sink)
		}
	}
	switch len(chain) {
	case 0:
		s.rt.SetSink(nil)
	case 1:
		s.rt.SetSink(chain[0])
	default:
		s.rt.SetSink(chain)
	}
}

// sinkOrNil converts a possibly-nil *trace.Collector into a plain
// EventSink without smuggling a typed nil into an interface.
func sinkOrNil(c *trace.Collector) tl2.EventSink {
	if c == nil {
		return nil
	}
	return c
}

// multiSink fans events out in order: the scheduler's observer first
// (online state tracking), then the collector (measurement), then the tap
// (durability). The slice is immutable once installed; rewiring swaps in a
// freshly built chain.
type multiSink []tl2.EventSink

func (m multiSink) TxCommit(p Pair, wv uint64, aborts int) {
	for _, s := range m {
		s.TxCommit(p, wv, aborts)
	}
}

func (m multiSink) TxAbort(p Pair, byWV uint64, known bool) {
	for _, s := range m {
		s.TxAbort(p, byWV, known)
	}
}

// Stats returns cumulative committed transactions and aborted attempts.
func (s *System) Stats() (commits, aborts uint64) { return s.rt.Stats() }

// Telemetry returns the system's live metrics: sharded lifecycle counters,
// sampled commit/validation latency histograms and, read from the guidance
// controller installed last, its gate tallies. The same object feeds the
// process-wide exporter (telemetry.Gather).
func (s *System) Telemetry() *telemetry.Metrics { return s.rt.Telemetry() }

// TelemetrySnapshot returns a point-in-time view of the system's metrics.
func (s *System) TelemetrySnapshot() TelemetrySnapshot { return s.rt.Telemetry().Snapshot() }

// Close takes the system out of the process-wide telemetry registry
// (GatherTelemetry, the /metrics endpoint), which otherwise keeps every
// System ever made reachable. Call it when a system's lifetime ends before
// the process's; the system's own Stats, Telemetry and TelemetrySnapshot
// keep working. Idempotent.
func (s *System) Close() { s.rt.Telemetry().Unregister() }

// ResetStats zeroes the cumulative counters and latency histograms, and
// the gate tallies of the guidance installed last (or still installed):
// GateStats, Health's gate counts and the telemetry's gate fields read
// zero together after it. The watchdog's trip is not undone.
func (s *System) ResetStats() { s.rt.ResetStats() }

// GateStats reports guided-execution gate decisions (passed immediately,
// held at least once, forced through after k retries). All zeros when
// guidance is off.
func (s *System) GateStats() (passed, held, escaped uint64) {
	s.mu.Lock()
	ctrl := s.ctrl
	s.mu.Unlock()
	if ctrl == nil {
		return 0, 0, 0
	}
	return ctrl.GateStats()
}

// Health is a point-in-time view of the system's runtime resilience state:
// the execution mode, cumulative work counters, policy-abandonment
// counters, gate decision counts, and — when guidance runs under a
// watchdog — the breaker state.
type Health struct {
	// Mode mirrors System.Mode: the execution mode derived from what is
	// installed (guided/degraded, profiling, unguided).
	Mode Mode

	// Commits and Aborts mirror Stats.
	Commits, Aborts uint64

	// RetryBudgetExceeded counts transactions abandoned because their
	// per-call retry budget ran out; ContextCanceled counts transactions
	// abandoned on context cancellation or deadline expiry. Both are
	// whole-transaction outcomes, separate from the per-attempt Aborts.
	RetryBudgetExceeded uint64
	ContextCanceled     uint64

	// Guided reports whether a guidance controller is installed;
	// GatePassed/GateHeld/GateEscaped mirror GateStats.
	Guided                            bool
	GatePassed, GateHeld, GateEscaped uint64

	// WatchdogEnabled reports whether guidance runs under a watchdog;
	// Watchdog is its snapshot (zero value when disabled).
	WatchdogEnabled bool
	Watchdog        WatchdogSnapshot
}

// Degraded reports whether the system is currently running in degraded
// (pass-through) mode: guidance is installed but its watchdog has tripped.
// Equivalent to Mode == ModeDegraded.
func (h Health) Degraded() bool {
	return h.WatchdogEnabled && h.Watchdog.State == guide.WatchdogTripped
}

// Health returns the system's current resilience snapshot. It is safe to
// call concurrently with running transactions. Mode, the gate counts and the
// watchdog come from one read of what is installed, so they agree.
func (s *System) Health() Health {
	s.mu.Lock()
	ctrl, col := s.ctrl, s.collector
	s.mu.Unlock()

	var h Health
	h.Commits, h.Aborts = s.rt.Stats()
	h.RetryBudgetExceeded, h.ContextCanceled = s.rt.ResilienceStats()
	if ctrl != nil {
		h.Guided = true
		h.GatePassed, h.GateHeld, h.GateEscaped = ctrl.GateStats()
		h.Watchdog, h.WatchdogEnabled = ctrl.Watchdog()
	}
	h.Mode = modeOf(h.Guided, h.Degraded(), col != nil)
	return h
}
