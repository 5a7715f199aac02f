// Package telemetry is the runtime observability layer of the STM: always-on,
// low-overhead instrumentation threaded through both engines (tl2, libtm)
// and the guidance path, with a stable snapshot API and Prometheus/JSON/HTTP
// exporters.
//
// Design constraints, in order:
//
//  1. The record path must be cheap enough to leave on during the paper's
//     variance measurements: sharded cache-line-padded counters (one
//     uncontended atomic add), sampled latency timestamps (1 in SampleEvery
//     commits), and zero allocation anywhere on the record path.
//  2. Reads must not perturb writers: snapshots merge per-shard values with
//     plain atomic loads, taking no locks the record path touches.
//  3. Everything must be mergeable, so per-runtime metrics roll up into the
//     process-wide view served by the HTTP exporter (Gather).
//
// Each engine Runtime owns one Metrics, auto-registered in a process-wide
// registry; Gather merges every registered Metrics into the single Snapshot
// the /metrics endpoint serves.
package telemetry

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/obs"
)

// SampleEvery is the commit-latency sampling period: one in every
// SampleEvery commits (per counter shard) has its commit and validation
// phases timed. Sampling keeps the two time.Now calls and the histogram
// update — the only non-trivial costs on the commit path — off all but
// 1/SampleEvery of commits, while a few hundred commits already give
// stable p99 estimates. 64 keeps the amortized cost under ~2ns per commit
// (the <5% budget on the shortest read-only transactions) and still yields
// thousands of samples on any run long enough for its tail to matter.
// Must be a power of two.
const SampleEvery = 64

// maxGateStates bounds the per-state gate table; arrivals in states beyond
// the cap are folded into the synthetic OverflowState entry so the hot path
// never grows the map unboundedly on adversarial workloads.
const maxGateStates = 512

// OverflowState is the synthetic state key that absorbs gate telemetry once
// maxGateStates distinct automaton states have been seen.
const OverflowState = "(other)"

// gateStateStats is the per-automaton-state gate telemetry. Plain atomics
// (not sharded): arrivals in any single state are already serialized by the
// workload far more than by the counter line.
type gateStateStats struct {
	visits  atomic.Uint64
	holds   atomic.Uint64
	escapes atomic.Uint64
}

// GateOutcome classifies one gate arrival.
type GateOutcome int

// Gate arrival outcomes.
const (
	// GatePass: the arrival proceeded without ever being delayed.
	GatePass GateOutcome = iota
	// GateHold: the arrival was delayed at least once, then allowed.
	GateHold
	// GateEscape: the arrival exhausted the K re-checks and was forced
	// through (the progress escape hatch).
	GateEscape
)

// Metrics is one instrumented component's telemetry: sharded counters,
// latency histograms, per-state gate telemetry and a bounded event ring.
// All record methods are safe for concurrent use and nil-safe, so optional
// holders (the guidance controller) can call through without a check.
type Metrics struct {
	label string

	// Transaction lifecycle counters (sharded by worker thread). Attempt
	// starts are not counted separately: every attempt ends in exactly one
	// of Commits or Aborts (budget exhaustion and cancellation are decided
	// after the final abort, before the next attempt), so Snapshot derives
	// Starts as their sum and the start path pays no atomic RMW at all.
	Commits             Counter // committed transactions
	Aborts              Counter // aborted attempts
	RetryBudgetExceeded Counter // transactions abandoned on a spent retry budget
	ContextCanceled     Counter // transactions abandoned on ctx cancellation
	WALUnavailable      Counter // operations refused because the shard's WAL is failed
	Parked              Counter // blocking transactions parked on their read set (tx.Retry)

	// Cross-shard commit-protocol counters. A k-shard transaction counts
	// once on every participant shard's Metrics, so the Gather aggregate
	// counts participant-commits, not transactions — divide by the mean
	// participant count for a transaction rate.
	XShardCommits Counter // cross-shard sub-transactions published atomically
	XShardAborts  Counter // cross-shard prepare rounds aborted all-or-nothing

	// AbortsByCause breaks Aborts down by the obs taxonomy (index =
	// obs.Cause): the same labels the span tracer stamps on captured
	// spans, so /metrics and /debug/trace agree on why attempts died.
	AbortsByCause [obs.NumCauses]Counter

	// Commit-path micro-counters: the engines' hot-path diagnostics added
	// with the small-vector write set and the GV4 clock (see DESIGN.md
	// "Commit-path deviations").
	ClockCASFallbacks    Counter // GV4 pass-on-failure: commits that adopted a winner's clock value
	WriteSetSpills       Counter // write sets that outgrew the inline fast path
	FilterFalsePositives Counter // write-set filter hits that found no entry
	StripeCollisions     Counter // striped mode: distinct written locations sharing one stripe lock

	// Guidance-gate decision counters.
	GatePassed  Counter
	GateHeld    Counter
	GateEscaped Counter

	// Watchdog transitions.
	WatchdogTrips  Counter
	WatchdogRearms Counter

	// Durability counters (internal/wal). Appends and bytes count records
	// accepted into the log buffer; fsyncs count physical fsync(2) calls
	// (group commit batches many appends per fsync); snapshots count
	// completed snapshot+truncate cycles. RecoveryReplayed counts records
	// re-applied during crash recovery and RecoveryNanos the wall time it
	// took, both recorded once at startup.
	WALAppends       Counter
	WALFsyncs        Counter
	WALBytes         Counter
	WALSnapshots     Counter
	RecoveryReplayed Counter
	RecoveryNanos    Counter

	// Latency histograms (nanosecond observations).
	CommitLatency     Histogram // whole commit protocol, sampled 1/SampleEvery
	ValidationLatency Histogram // read-set validation when it ran, same samples
	GateHoldTime      Histogram // time a held arrival spent at the gate
	TimeToFirstCommit Histogram // Metrics creation (or Reset) → first commit

	// Events is the bounded ring of recent diagnostic events.
	Events *Ring

	gateStates sync.Map // state key (string) → *gateStateStats
	gateCount  atomic.Int64

	firstDone atomic.Bool
	markMu    sync.Mutex
	mark      time.Time
}

// Process-wide registry of every live Metrics, merged by Gather for the
// exporter endpoint.
var registry struct {
	mu   sync.Mutex
	list []*Metrics
}

// New returns a fresh Metrics labeled for diagnostics (e.g. "tl2",
// "libtm") and registers it in the process-wide registry served by Gather.
func New(label string) *Metrics {
	m := NewDetached(label)
	registry.mu.Lock()
	registry.list = append(registry.list, m)
	registry.mu.Unlock()
	return m
}

// Unregister removes m from the registry Gather serves, so an engine with a
// bounded lifetime (a server under test, a benchmark's set-up) does not
// stay reachable — rings, histograms and all — for the life of the
// process. m itself keeps counting and Snapshot keeps working. Idempotent
// and nil-safe.
func (m *Metrics) Unregister() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if i := slices.Index(registry.list, m); i >= 0 {
		registry.list = slices.Delete(registry.list, i, i+1)
	}
}

// NewDetached returns a Metrics that is NOT merged into Gather — for tests
// and benchmarks that want isolation from the process-wide view.
func NewDetached(label string) *Metrics {
	m := &Metrics{label: label, Events: NewRing(DefaultRingCapacity)}
	m.mark = time.Now()
	return m
}

// Label returns the diagnostic label given at creation.
func (m *Metrics) Label() string {
	if m == nil {
		return ""
	}
	return m.label
}

// Gather merges every registered Metrics into one process-wide Snapshot —
// what the /metrics endpoint of the exporter serves. Snapshots of Metrics
// sharing a registration label are first merged into one component
// snapshot each; the aggregate carries the per-label breakdown in
// Components (sorted by label) so sharded deployments can report
// per-shard series alongside the process-wide totals.
func Gather() Snapshot {
	registry.mu.Lock()
	list := make([]*Metrics, len(registry.list))
	copy(list, registry.list)
	registry.mu.Unlock()

	out := Snapshot{Label: "all", TakenAt: time.Now()}
	byLabel := make(map[string]*Snapshot)
	var labels []string
	for _, m := range list {
		snap := m.Snapshot()
		out.Merge(snap)
		comp, ok := byLabel[snap.Label]
		if !ok {
			labels = append(labels, snap.Label)
			c := Snapshot{Label: snap.Label, TakenAt: out.TakenAt}
			comp = &c
			byLabel[snap.Label] = comp
		}
		comp.Merge(snap)
	}
	sort.Strings(labels)
	for _, l := range labels {
		comp := byLabel[l]
		comp.Events = nil // the aggregate ring already has them
		out.Components = append(out.Components, *comp)
	}
	out.Gauges = gatherGauges()
	return out
}

// TxStart marks one transaction attempt start by thread and reports
// whether this attempt's commit should be latency-sampled (one in
// SampleEvery commits per shard). The decision is a single plain atomic
// load of the shard's commit count — a cache line the calling thread
// already owns — so an unsampled start costs no locked RMW. When a sampled
// attempt aborts, the retry is sampled again until one commits, which
// keeps the effective commit sampling rate at 1/SampleEvery.
func (m *Metrics) TxStart(thread uint64) bool {
	if m == nil {
		return false
	}
	return m.Commits.shardLoad(thread)&(SampleEvery-1) == SampleEvery-1
}

// TxCommit records one committed transaction. The first commit after
// creation or Reset also records the time-to-first-commit sample.
func (m *Metrics) TxCommit(thread uint64) {
	if m == nil {
		return
	}
	m.Commits.Inc(thread)
	if !m.firstDone.Load() && m.firstDone.CompareAndSwap(false, true) {
		m.markMu.Lock()
		mark := m.mark
		m.markMu.Unlock()
		m.TimeToFirstCommit.Observe(thread, time.Since(mark))
	}
}

// TxAbort records one aborted attempt with its taxonomy cause.
func (m *Metrics) TxAbort(thread uint64, cause obs.Cause) {
	if m == nil {
		return
	}
	m.Aborts.Inc(thread)
	if cause >= obs.NumCauses {
		cause = obs.CauseNone
	}
	m.AbortsByCause[cause].Inc(thread)
}

// WALRefused records an operation refused because the write-ahead log is
// in a terminal failure state (the serving layer's StatusUnavailable).
func (m *Metrics) WALRefused(thread uint64) {
	if m == nil {
		return
	}
	m.WALUnavailable.Inc(thread)
}

// TxParked records one blocking transaction parking on its read set after
// tx.Retry: the goroutine is about to sleep until a commit wakes it (or its
// park context ends).
func (m *Metrics) TxParked(thread uint64) {
	if m == nil {
		return
	}
	m.Parked.Inc(thread)
}

// TxBudgetExceeded records a transaction abandoned on a spent retry budget.
func (m *Metrics) TxBudgetExceeded(thread uint64) {
	if m == nil {
		return
	}
	m.RetryBudgetExceeded.Inc(thread)
	m.Events.Record(KindBudgetExhausted, "", "")
}

// TxCanceled records a transaction abandoned on context cancellation.
func (m *Metrics) TxCanceled(thread uint64) {
	if m == nil {
		return
	}
	m.ContextCanceled.Inc(thread)
	m.Events.Record(KindContextCanceled, "", "")
}

// ObserveCommit records a sampled commit's protocol latency and, when the
// commit ran read-set validation, the validation latency.
func (m *Metrics) ObserveCommit(thread uint64, total, validation time.Duration, validated bool) {
	if m == nil {
		return
	}
	m.CommitLatency.Observe(thread, total)
	if validated {
		m.ValidationLatency.Observe(thread, validation)
	}
}

// GateArrival records one guidance-gate decision: the aggregate outcome
// counter, the per-state visit/hold/escape tally under the automaton state
// current at arrival, the hold-time sample for delayed arrivals, and a ring
// event for escapes (the diagnostic signature of a stale model).
func (m *Metrics) GateArrival(state string, outcome GateOutcome, thread uint64, hold time.Duration) {
	if m == nil {
		return
	}
	switch outcome {
	case GateHold:
		m.GateHeld.Inc(thread)
	case GateEscape:
		m.GateEscaped.Inc(thread)
		m.Events.Record(KindGateEscape, state, "")
	default:
		m.GatePassed.Inc(thread)
	}
	if hold > 0 {
		m.GateHoldTime.Observe(thread, hold)
	}
	st := m.gateState(state)
	st.visits.Add(1)
	switch outcome {
	case GateHold:
		st.holds.Add(1)
	case GateEscape:
		st.escapes.Add(1)
	}
}

// gateState returns the stats cell for state, folding new states into
// OverflowState once the cap is reached. The double-checked LoadOrStore
// keeps the steady-state path to one lock-free map read.
func (m *Metrics) gateState(state string) *gateStateStats {
	if state == "" {
		state = "(bootstrap)"
	}
	if v, ok := m.gateStates.Load(state); ok {
		return v.(*gateStateStats)
	}
	if m.gateCount.Load() >= maxGateStates && state != OverflowState {
		return m.gateState(OverflowState)
	}
	v, loaded := m.gateStates.LoadOrStore(state, &gateStateStats{})
	if !loaded {
		m.gateCount.Add(1)
	}
	return v.(*gateStateStats)
}

// WatchdogTrip records a guidance-watchdog trip with its reason.
func (m *Metrics) WatchdogTrip(state, reason string) {
	if m == nil {
		return
	}
	m.WatchdogTrips.Inc(0)
	m.Events.Record(KindWatchdogTrip, state, reason)
}

// WatchdogRearm records a watchdog re-arm after cooldown.
func (m *Metrics) WatchdogRearm(state string) {
	if m == nil {
		return
	}
	m.WatchdogRearms.Inc(0)
	m.Events.Record(KindWatchdogRearm, state, "")
}

// Snapshot returns a point-in-time view of this Metrics. Safe to call
// while recording continues; the snapshot is internally consistent per
// metric but not across metrics (monitoring semantics).
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Label:                m.label,
		TakenAt:              time.Now(),
		Commits:              m.Commits.Load(),
		Aborts:               m.Aborts.Load(),
		RetryBudgetExceeded:  m.RetryBudgetExceeded.Load(),
		ContextCanceled:      m.ContextCanceled.Load(),
		WALUnavailable:       m.WALUnavailable.Load(),
		Parked:               m.Parked.Load(),
		XShardCommits:        m.XShardCommits.Load(),
		XShardAborts:         m.XShardAborts.Load(),
		ClockCASFallbacks:    m.ClockCASFallbacks.Load(),
		WriteSetSpills:       m.WriteSetSpills.Load(),
		FilterFalsePositives: m.FilterFalsePositives.Load(),
		StripeCollisions:     m.StripeCollisions.Load(),
		GatePassed:           m.GatePassed.Load(),
		GateHeld:             m.GateHeld.Load(),
		GateEscaped:          m.GateEscaped.Load(),
		WatchdogTrips:        m.WatchdogTrips.Load(),
		WatchdogRearms:       m.WatchdogRearms.Load(),
		WALAppends:           m.WALAppends.Load(),
		WALFsyncs:            m.WALFsyncs.Load(),
		WALBytes:             m.WALBytes.Load(),
		WALSnapshots:         m.WALSnapshots.Load(),
		RecoveryReplayed:     m.RecoveryReplayed.Load(),
		RecoveryNanos:        m.RecoveryNanos.Load(),
		CommitLatency:        m.CommitLatency.Snapshot(),
		ValidationLatency:    m.ValidationLatency.Snapshot(),
		GateHoldTime:         m.GateHoldTime.Snapshot(),
		TimeToFirstCommit:    m.TimeToFirstCommit.Snapshot(),
		Events:               m.Events.Snapshot(),
	}
	// Derived, not counted: every finished attempt committed or aborted, so
	// their sum is the attempt-start total (in-flight attempts show up on
	// the next scrape — fine for a monotone monitoring counter).
	s.Starts = s.Commits + s.Aborts
	s.AbortsByCause = make([]uint64, obs.NumCauses)
	for i := range m.AbortsByCause {
		s.AbortsByCause[i] = m.AbortsByCause[i].Load()
	}
	m.gateStates.Range(func(k, v any) bool {
		st := v.(*gateStateStats)
		s.GateStates = append(s.GateStates, GateStateSnapshot{
			State:   k.(string),
			Visits:  st.visits.Load(),
			Holds:   st.holds.Load(),
			Escapes: st.escapes.Load(),
		})
		return true
	})
	sort.Slice(s.GateStates, func(i, j int) bool {
		if s.GateStates[i].Visits != s.GateStates[j].Visits {
			return s.GateStates[i].Visits > s.GateStates[j].Visits
		}
		return s.GateStates[i].State < s.GateStates[j].State
	})
	return s
}

// Reset zeroes all counters, histograms, gate-state telemetry and the
// event ring, and restarts the time-to-first-commit clock. Intended between
// measurement phases; concurrent recording races benignly.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	for _, c := range []*Counter{
		&m.Commits, &m.Aborts, &m.RetryBudgetExceeded,
		&m.ContextCanceled, &m.WALUnavailable, &m.Parked,
		&m.XShardCommits, &m.XShardAborts, &m.ClockCASFallbacks,
		&m.WriteSetSpills,
		&m.FilterFalsePositives, &m.StripeCollisions,
		&m.GatePassed, &m.GateHeld, &m.GateEscaped,
		&m.WatchdogTrips, &m.WatchdogRearms,
		&m.WALAppends, &m.WALFsyncs, &m.WALBytes, &m.WALSnapshots,
		&m.RecoveryReplayed, &m.RecoveryNanos,
	} {
		c.reset()
	}
	for i := range m.AbortsByCause {
		m.AbortsByCause[i].reset()
	}
	for _, h := range []*Histogram{
		&m.CommitLatency, &m.ValidationLatency, &m.GateHoldTime, &m.TimeToFirstCommit,
	} {
		h.reset()
	}
	m.Events.reset()
	m.gateStates.Range(func(k, _ any) bool {
		m.gateStates.Delete(k)
		return true
	})
	m.gateCount.Store(0)
	m.markMu.Lock()
	m.mark = time.Now()
	m.markMu.Unlock()
	m.firstDone.Store(false)
}
