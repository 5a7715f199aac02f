// Package telemetry is the runtime observability layer of the STM: always-on,
// low-overhead instrumentation threaded through both engines (tl2, libtm)
// and the guidance path, with a stable snapshot API and Prometheus/JSON/HTTP
// exporters.
//
// Design constraints, in order:
//
//  1. The record path must be cheap enough to leave on during the paper's
//     variance measurements: counters kept in one cache-line-aligned block
//     per thread slot (one uncontended atomic add), sampled latency stamps
//     (1 in SampleEvery commits, read off obs.Now, the span clock) into
//     obs.Hist, the module's one histogram type, and zero allocation
//     anywhere on the record path.
//  2. Reads must not perturb writers: snapshots sum the slots' values with
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
// SampleEvery commits (per thread slot) has its commit and validation
// phases timed. Sampling keeps the two obs.Now calls and the histogram
// update — the only non-trivial costs on the commit path — off all but
// 1/SampleEvery of commits, while a few hundred commits already give
// stable p99 estimates. 64 keeps the amortized cost under ~2ns per commit
// (the <5% budget on the shortest read-only transactions) and still yields
// thousands of samples on any run long enough for its tail to matter.
// Must be a power of two.
const SampleEvery = 64

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

// Counter names one of a Metrics' counters (Metrics.Inc, Add, Load).
type Counter int

// The counters of a Metrics, in block order.
const (
	// Transaction lifecycle counters. Attempt starts are not counted
	// separately: every attempt ends in exactly one of Commits or Aborts
	// (budget exhaustion and cancellation are decided after the final
	// abort, before the next attempt), so Snapshot derives Starts as their
	// sum and the start path pays no atomic RMW at all.
	Commits             Counter = iota // committed transactions
	Aborts                             // aborted attempts
	RetryBudgetExceeded                // transactions abandoned on a spent retry budget
	ContextCanceled                    // transactions abandoned on ctx cancellation
	WALUnavailable                     // operations refused because the shard's WAL is failed
	Parked                             // blocking transactions parked on their read set (tx.Retry)

	// Cross-shard commit-protocol counters. A k-shard transaction counts
	// once on every participant shard's Metrics, so the Gather aggregate
	// counts participant-commits, not transactions — divide by the mean
	// participant count for a transaction rate.
	XShardCommits // cross-shard sub-transactions published atomically
	XShardAborts  // cross-shard prepare rounds aborted all-or-nothing

	// Commit-path micro-counters: the engines' hot-path diagnostics added
	// with the small-vector write set and the GV4 clock (see DESIGN.md
	// "Commit-path deviations").
	ClockCASFallbacks    // GV4 pass-on-failure: commits that adopted a winner's clock value
	WriteSetSpills       // write sets that outgrew the inline fast path
	FilterFalsePositives // write-set filter hits that found no entry

	// Durability counters (internal/wal). Appends and bytes count records
	// accepted into the log buffer; fsyncs count physical fsync(2) calls
	// (group commit batches many appends per fsync); snapshots count
	// completed snapshot+truncate cycles. RecoveryReplayed counts records
	// re-applied during crash recovery and RecoveryNanos the wall time it
	// took, both recorded once at startup.
	WALAppends
	WALFsyncs
	WALBytes
	WALSnapshots
	RecoveryReplayed
	RecoveryNanos

	// abortCauses is the first of obs.NumCauses counters breaking Aborts
	// down by the obs taxonomy (abortCause): the same labels the span
	// tracer stamps on captured spans, so /metrics and /debug/trace agree
	// on why attempts died.
	abortCauses

	numCounters = int(abortCauses) + int(obs.NumCauses)
)

// abortCause names the counter of aborts with cause c; an out-of-range
// cause counts as obs.CauseNone.
func abortCause(c obs.Cause) Counter {
	if c >= obs.NumCauses {
		c = obs.CauseNone
	}
	return abortCauses + Counter(c)
}

// Metrics is one instrumented component's telemetry: counters and latency
// histograms, plus the gate tallies of the guidance controller installed
// on it (SetGate), which it reads rather than copies. The counters are one
// block of every Counter per thread slot (see Counters), so a thread's
// increments touch only its own block's lines.
// All record methods are safe for concurrent use and nil-safe.
type Metrics struct {
	label string
	ctr   Counters

	// Latency histograms (nanosecond observations, obs.Now stamps).
	CommitLatency     obs.Hist // whole commit protocol, sampled 1/SampleEvery
	ValidationLatency obs.Hist // read-set validation when it ran, same samples

	// gate is the guidance gate whose decisions Snapshot reports and Reset
	// zeroes; nil while none was ever installed.
	gate atomic.Pointer[GateSource]

	// walQueueDepth reads the component's write-ahead log backlog at
	// Snapshot time; nil while the component has no log.
	walQueueDepth atomic.Pointer[func() uint64]
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
// stay reachable — histograms and all — for the life of the
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
	return &Metrics{label: label, ctr: NewCounters(numCounters)}
}

// Inc adds one to counter c in thread's slot. Nil-safe.
func (m *Metrics) Inc(c Counter, thread uint64) {
	if m == nil {
		return
	}
	m.ctr.Inc(thread, int(c))
}

// Add adds n to counter c in thread's slot. Nil-safe.
func (m *Metrics) Add(c Counter, thread, n uint64) {
	if m == nil {
		return
	}
	m.ctr.Add(thread, int(c), n)
}

// Load returns counter c summed over every thread slot (0 on a nil
// Metrics).
func (m *Metrics) Load(c Counter) uint64 {
	if m == nil {
		return 0
	}
	return m.ctr.Load(int(c))
}

// SetWALQueueDepth gives m its write-ahead log's queue-depth reading
// (wal.Open calls it). depth is called on every Snapshot and must be safe
// for concurrent use.
func (m *Metrics) SetWALQueueDepth(depth func() uint64) {
	m.walQueueDepth.Store(&depth)
}

// GateSource is a guidance gate that keeps its own decision tallies
// (guide.Controller): a Metrics reads them on every Snapshot and zeroes them
// on Reset, so the gate's decisions have one record. Both methods must be
// safe for concurrent use with the gate's decisions.
type GateSource interface {
	// FillGate sets s's gate fields: GatePassed, GateHeld, GateEscaped,
	// WatchdogTrips, GateHoldTime and GateStates (in any order).
	FillGate(s *Snapshot)
	// ResetGate zeroes the decision tallies and hold times.
	ResetGate()
}

// SetGate makes g the gate m reports (guide.WithTelemetry calls it). It
// replaces any earlier gate, whose tallies m then no longer reads, so the
// gate series restart from zero. Nil-safe.
func (m *Metrics) SetGate(g GateSource) {
	if m == nil {
		return
	}
	m.gate.Store(&g)
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
		out.Components = append(out.Components, *byLabel[l])
	}
	return out
}

// TxStart marks one transaction attempt start by thread and reports
// whether this attempt's commit should be latency-sampled (one in
// SampleEvery commits per thread slot). The decision is a single plain
// atomic load of the slot's commit count — a cache line the calling thread
// already owns — so an unsampled start costs no locked RMW. When a sampled
// attempt aborts, the retry is sampled again until one commits, which
// keeps the effective commit sampling rate at 1/SampleEvery.
func (m *Metrics) TxStart(thread uint64) bool {
	if m == nil {
		return false
	}
	return m.ctr.slotLoad(thread, int(Commits))&(SampleEvery-1) == SampleEvery-1
}

// TxCommit records one committed transaction.
func (m *Metrics) TxCommit(thread uint64) {
	if m == nil {
		return
	}
	m.Inc(Commits, thread)
}

// TxAbort records one aborted attempt with its taxonomy cause.
func (m *Metrics) TxAbort(thread uint64, cause obs.Cause) {
	if m == nil {
		return
	}
	m.Inc(Aborts, thread)
	m.Inc(abortCause(cause), thread)
}

// WALRefused records an operation refused because the write-ahead log is
// in a terminal failure state (the serving layer's StatusUnavailable).
func (m *Metrics) WALRefused(thread uint64) {
	if m == nil {
		return
	}
	m.Inc(WALUnavailable, thread)
}

// TxParked records one blocking transaction parking on its read set after
// tx.Retry: the goroutine is about to sleep until a commit wakes it (or its
// park context ends).
func (m *Metrics) TxParked(thread uint64) {
	if m == nil {
		return
	}
	m.Inc(Parked, thread)
}

// TxBudgetExceeded records a transaction abandoned on a spent retry budget.
func (m *Metrics) TxBudgetExceeded(thread uint64) {
	if m == nil {
		return
	}
	m.Inc(RetryBudgetExceeded, thread)
}

// TxCanceled records a transaction abandoned on context cancellation.
func (m *Metrics) TxCanceled(thread uint64) {
	if m == nil {
		return
	}
	m.Inc(ContextCanceled, thread)
}

// ObserveCommit records a sampled commit's protocol latency and, when the
// commit ran read-set validation, the validation latency (nanoseconds,
// differences of obs.Now stamps).
func (m *Metrics) ObserveCommit(totalNs, validationNs uint64, validated bool) {
	if m == nil {
		return
	}
	m.CommitLatency.Observe(totalNs)
	if validated {
		m.ValidationLatency.Observe(validationNs)
	}
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
		Commits:              m.Load(Commits),
		Aborts:               m.Load(Aborts),
		RetryBudgetExceeded:  m.Load(RetryBudgetExceeded),
		ContextCanceled:      m.Load(ContextCanceled),
		WALUnavailable:       m.Load(WALUnavailable),
		Parked:               m.Load(Parked),
		XShardCommits:        m.Load(XShardCommits),
		XShardAborts:         m.Load(XShardAborts),
		ClockCASFallbacks:    m.Load(ClockCASFallbacks),
		WriteSetSpills:       m.Load(WriteSetSpills),
		FilterFalsePositives: m.Load(FilterFalsePositives),
		WALAppends:           m.Load(WALAppends),
		WALFsyncs:            m.Load(WALFsyncs),
		WALBytes:             m.Load(WALBytes),
		WALSnapshots:         m.Load(WALSnapshots),
		RecoveryReplayed:     m.Load(RecoveryReplayed),
		RecoveryNanos:        m.Load(RecoveryNanos),
		CommitLatency:        m.CommitLatency.Snapshot(),
		ValidationLatency:    m.ValidationLatency.Snapshot(),
	}
	// Derived, not counted: every finished attempt committed or aborted, so
	// their sum is the attempt-start total (in-flight attempts show up on
	// the next scrape — fine for a monotone monitoring counter).
	s.Starts = s.Commits + s.Aborts
	if depth := m.walQueueDepth.Load(); depth != nil {
		d := (*depth)()
		s.WALQueueDepth = &d
	}
	s.AbortsByCause = make([]uint64, obs.NumCauses)
	for i := range s.AbortsByCause {
		s.AbortsByCause[i] = m.Load(abortCause(obs.Cause(i)))
	}
	if g := m.gate.Load(); g != nil {
		(*g).FillGate(&s)
		sortGateStates(s.GateStates)
	}
	return s
}

// Reset zeroes all counters, histograms and the installed gate's tallies.
// Intended between measurement phases; concurrent recording races benignly.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.ctr.Reset()
	m.CommitLatency.Reset()
	m.ValidationLatency.Reset()
	if g := m.gate.Load(); g != nil {
		(*g).ResetGate()
	}
}
