package tl2

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/commitreg"
	"gstm/internal/obs"
	"gstm/internal/retry"
	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

// Config parameterizes a Runtime. The zero value is usable; Normalize fills
// in defaults.
type Config struct {
	// Interleave, when positive, makes each transactional operation yield
	// the processor with probability 1/Interleave. It substitutes for true
	// multi-core interleaving on the single-core test machine (DESIGN.md).
	Interleave int

	// MaxReadSpin bounds how many times a read spins on a locked location
	// before declaring a conflict.
	MaxReadSpin int

	// MaxLockSpin bounds how many times commit-time lock acquisition spins
	// per location before aborting, TL2's deadlock-avoidance rule.
	MaxLockSpin int

	// RegistryCapacity sizes the wv→committer attribution ring.
	RegistryCapacity int

	// EagerWriteLock switches conflict detection on writes from lazy
	// (commit-time, the TL2 default the paper evaluates) to eager
	// (encounter-time): the versioned lock is taken at the first Write, so
	// write-write conflicts and writer/reader conflicts surface
	// immediately. Section II argues results on lazy detection imply the
	// eager case; this knob lets the ablation benches check that claim.
	EagerWriteLock bool

	// Label names this runtime's telemetry registration (default "tl2").
	// Sharded deployments label each shard's runtime distinctly so Gather
	// can report per-shard series next to the aggregate.
	Label string

	// PrivateClock gives the runtime its own version clock instead of the
	// process-wide one. Transactions on a private-clock runtime must only
	// touch Vars owned by that runtime: a Var written under one clock may
	// carry a version another clock has not reached yet, which would make
	// a reader under the other clock spin or abort forever. The shard
	// router relies on this to keep unrelated transactions off a shared
	// clock cache line entirely.
	PrivateClock bool

	// LockStripes, when positive, replaces per-location versioned lock
	// words with a striped lock table of that many cache-line-padded
	// stripes (rounded up to a power of two): location addresses hash to
	// stripes, so Array elements share lock words instead of carrying one
	// each. Aliased locations conflict falsely but never unsafely (see
	// stripe.go). Like PrivateClock, a striped runtime's Vars must be used
	// exclusively under that runtime. Zero keeps the per-location default.
	LockStripes int
}

// Normalize returns cfg with defaults applied to zero fields.
func (cfg Config) Normalize() Config {
	if cfg.MaxReadSpin <= 0 {
		cfg.MaxReadSpin = 64
	}
	if cfg.MaxLockSpin <= 0 {
		cfg.MaxLockSpin = 64
	}
	if cfg.RegistryCapacity <= 0 {
		cfg.RegistryCapacity = 1 << 16
	}
	if cfg.LockStripes < 0 {
		cfg.LockStripes = 0
	}
	if cfg.LockStripes > 0 {
		// Round up to a power of two so stripe selection is a mask.
		n := 1
		for n < cfg.LockStripes {
			n <<= 1
		}
		cfg.LockStripes = n
	}
	return cfg
}

// EventSink receives the instrumentation stream the paper adds to TL2
// (TX_commit / TX_abort): every commit with its global sequence number wv,
// and every abort with the commit that caused it when attribution
// succeeded. Implementations must be safe for concurrent use.
type EventSink interface {
	// TxCommit reports that p committed with write version wv after
	// aborting `aborts` times (its failed attempts). wv values are unique
	// and drawn from a single global clock, so sorting commits by wv
	// reconstructs the global commit order.
	TxCommit(p txid.Pair, wv uint64, aborts int)

	// TxAbort reports that p aborted an attempt. byWV identifies the
	// invalidating commit; byKnown is false when attribution failed, in
	// which case by holds the runtime's best-effort guess (the most recent
	// commit) and byWV is that commit's wv.
	TxAbort(p txid.Pair, byWV uint64, by txid.Pair, byKnown bool)
}

// Gate is consulted at every transaction start (the paper's modified
// TM_BEGIN). Arrive may delay the calling goroutine to steer execution, and
// must eventually return to guarantee progress. The returned outcome feeds
// the span tracer: GatePass for an undelayed arrival, GateHold when the
// caller was delayed, GateEscape when a bounded wait gave up (surfaced as a
// gate-timeout cause on the span's gate event).
type Gate interface {
	Arrive(p txid.Pair) telemetry.GateOutcome
}

// FaultInjector is the engine's chaos-testing hook (internal/faultinject
// implements it). Decisions must be deterministic functions of their
// arguments plus the injector's seed so fault schedules replay identically
// regardless of goroutine interleaving. A nil injector (the default)
// disables all fault points.
type FaultInjector interface {
	// SpuriousAbort, consulted after the body ran cleanly and before the
	// commit protocol, forces the attempt to abort and retry as if a
	// conflict had been detected.
	SpuriousAbort(p txid.Pair, attempt int) bool

	// CommitDelay returns extra scheduler yields to insert while the
	// commit holds the write-set locks, widening the mid-commit window
	// other transactions observe as locked words.
	CommitDelay(p txid.Pair, attempt int) int
}

// Runtime is a TL2 STM instance: configuration and instrumentation hooks
// shared by all transactions it executes. By default all Runtimes in the
// process share the single global version clock (as in the original TL2
// library), so Vars may be created and populated under one Runtime and used
// under another; Config.PrivateClock opts a runtime out of the shared clock
// at the cost of that portability.
type Runtime struct {
	cfg   Config
	reg   *commitreg.Registry
	clock *clock
	sink  atomic.Pointer[sinkBox]
	gate  atomic.Pointer[gateBox]
	fault atomic.Pointer[faultBox]
	pool  sync.Pool

	// stripes is the striped lock table (Config.LockStripes), or nil in
	// the default per-location mode. Immutable after New.
	stripes *stripeTable

	// tel holds all runtime counters and latency histograms (sharded by
	// worker thread), registered in the process-wide telemetry registry.
	tel *telemetry.Metrics
}

type sinkBox struct{ s EventSink }
type gateBox struct{ g Gate }
type faultBox struct{ f FaultInjector }

// New returns a Runtime with cfg (zero fields defaulted).
func New(cfg Config) *Runtime {
	label := cfg.Label
	if label == "" {
		label = "tl2"
	}
	rt := &Runtime{cfg: cfg.Normalize(), tel: telemetry.New(label), clock: &globalClock}
	if cfg.PrivateClock {
		rt.clock = new(clock)
	}
	if rt.cfg.LockStripes > 0 {
		rt.stripes = newStripeTable(rt.cfg.LockStripes)
	}
	rt.reg = commitreg.New(rt.cfg.RegistryCapacity)
	rt.pool.New = func() any {
		tx := &Tx{rt: rt}
		tx.group = []*Tx{tx}
		return tx
	}
	return rt
}

// Telemetry returns this runtime's metrics: sharded lifecycle counters,
// sampled latency histograms, and the diagnostic event ring.
func (rt *Runtime) Telemetry() *telemetry.Metrics { return rt.tel }

// SetSink installs (or, with nil, removes) the instrumentation sink.
// Safe to call while transactions run; events race benignly around the
// switch point.
func (rt *Runtime) SetSink(s EventSink) {
	if s == nil {
		rt.sink.Store(nil)
		return
	}
	rt.sink.Store(&sinkBox{s: s})
}

// SetGate installs (or, with nil, removes) the transaction-start gate used
// by guided execution.
func (rt *Runtime) SetGate(g Gate) {
	if g == nil {
		rt.gate.Store(nil)
		return
	}
	rt.gate.Store(&gateBox{g: g})
}

// SetFaultInjector installs (or, with nil, removes) the chaos-testing fault
// injector. Production systems never call this; the fault points reduce to
// one atomic load when no injector is set.
func (rt *Runtime) SetFaultInjector(f FaultInjector) {
	if f == nil {
		rt.fault.Store(nil)
		return
	}
	rt.fault.Store(&faultBox{f: f})
}

// injector returns the installed fault injector, or nil.
func (rt *Runtime) injector() FaultInjector {
	if fb := rt.fault.Load(); fb != nil {
		return fb.f
	}
	return nil
}

// clk returns this runtime's version clock: the process-wide one unless
// Config.PrivateClock selected an unshared instance.
func (rt *Runtime) clk() *clock { return rt.clock }

// Clock returns the current global version clock value. With a sink
// installed every commit ticks it exactly once, so it counts commits; in
// the untraced fast path read-only commits elide the tick and GV4 clock
// sharing lets concurrent writers reuse one tick, so it only bounds the
// number of write commits from below. Exported for tests and harnesses.
func (rt *Runtime) Clock() uint64 { return rt.clk().now() }

// AdvanceClock raises the runtime's version clock to at least v (no-op
// when it is already past v). Crash recovery calls this after replaying a
// durable log so the first post-recovery commit draws a write version
// strictly above every logged one. Never lowers the clock.
func (rt *Runtime) AdvanceClock(v uint64) { rt.clk().advanceTo(v) }

// Stats returns the cumulative number of committed transactions and of
// aborted attempts.
func (rt *Runtime) Stats() (commits, aborts uint64) {
	return rt.tel.Commits.Load(), rt.tel.Aborts.Load()
}

// ResetStats zeroes the cumulative telemetry — counters, latency
// histograms, gate tallies and the event ring (the clock is never reset —
// versions must stay monotone).
func (rt *Runtime) ResetStats() {
	rt.tel.Reset()
}

// ResilienceStats returns the cumulative number of transactions abandoned
// because their per-call retry budget ran out, and abandoned because their
// context was canceled or its deadline passed. Both are whole-transaction
// outcomes; the per-attempt aborts they incurred along the way are counted
// by Stats as usual.
func (rt *Runtime) ResilienceStats() (budgetExceeded, canceled uint64) {
	return rt.tel.RetryBudgetExceeded.Load(), rt.tel.ContextCanceled.Load()
}

// RunOpts bundles the per-call execution options of RunOpt, the options
// form of Run. The zero value is a plain read-write, non-blocking,
// unbounded, untraced transaction.
type RunOpts struct {
	// ReadOnly selects TL2's read-only fast path; a Write inside the body
	// returns an error without retrying.
	ReadOnly bool

	// MaxAttempts > 0 bounds attempts without a context allocation,
	// overriding any retry.WithBudget budget carried by ctx; <= 0 defers to
	// the context budget (0 = unlimited).
	MaxAttempts int

	// Span, when non-nil, receives the variance-observatory timeline: gate
	// waits, aborted attempts with causes, commit phases, and parks.
	Span *obs.Span

	// Block enables composable blocking: a tx.Retry parks the goroutine on
	// the attempt's read set until a commit changes one of those locations,
	// then the transaction re-runs. Without Block a Retry returns
	// retry.ErrWouldBlock. Blocking forces read-set tracking even when
	// ReadOnly is set.
	Block bool

	// BlockCtx, when non-nil, bounds parks separately from the run context:
	// its cancellation or deadline ends a park (and the Run call) with
	// retry.ErrCanceled wrapping the context's error. When nil, parks are
	// bounded by the run ctx; with neither, a park waits indefinitely.
	BlockCtx context.Context
}

// Atomic executes fn transactionally as transaction site txn on worker
// thread. fn may be re-executed any number of times; it must not have side
// effects outside transactional Reads/Writes. A non-nil error from fn
// aborts the attempt, discards its writes and is returned without retry.
//
// Atomic must not be nested.
func (rt *Runtime) Atomic(thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error) error {
	return rt.run(nil, rt.one(), pair(thread, txn), fn, nil, RunOpts{})
}

// AtomicRO executes fn as a read-only transaction: TL2's fast path, which
// skips read-set bookkeeping entirely because reads are fully validated at
// access time and a read-only commit validates nothing further. A Write
// inside fn returns an error without retrying.
func (rt *Runtime) AtomicRO(thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error) error {
	return rt.run(nil, rt.one(), pair(thread, txn), fn, nil, RunOpts{ReadOnly: true})
}

// AtomicCtx is Atomic honoring ctx: cancellation or deadline expiry is
// checked between retry attempts (never mid-attempt — an attempt either
// aborts cleanly or commits) and surfaces as ctx.Err(). A per-call attempt
// budget attached with retry.WithBudget bounds retries; when the last
// budgeted attempt aborts, AtomicCtx returns retry.ErrBudgetExceeded. In
// both cases no locks remain held and no writes were published.
func (rt *Runtime) AtomicCtx(ctx context.Context, thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error) error {
	return rt.run(ctx, rt.one(), pair(thread, txn), fn, nil, RunOpts{})
}

// AtomicROCtx is AtomicRO honoring ctx like AtomicCtx.
func (rt *Runtime) AtomicROCtx(ctx context.Context, thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error) error {
	return rt.run(ctx, rt.one(), pair(thread, txn), fn, nil, RunOpts{ReadOnly: true})
}

// Run is the unified entrypoint behind gstm's System.Run: one code path
// for all four Atomic* shapes. ctx may be nil (never canceled, checked
// between attempts otherwise). readOnly selects the validation-free
// read-only fast path. maxAttempts > 0 bounds attempts without a context
// allocation, overriding any retry.WithBudget budget carried by ctx;
// maxAttempts <= 0 defers to the context budget (0 = unlimited).
func (rt *Runtime) Run(ctx context.Context, thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error, readOnly bool, maxAttempts int) error {
	return rt.run(ctx, rt.one(), pair(thread, txn), fn, nil, RunOpts{ReadOnly: readOnly, MaxAttempts: maxAttempts})
}

// RunSpan is Run with a variance-observatory span attached: gate waits,
// per-attempt retries (with their abort causes) and the commit protocol's
// lock/validate/publish phases are recorded into span's timeline. span may
// be nil, in which case RunSpan is exactly Run.
func (rt *Runtime) RunSpan(ctx context.Context, thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error, readOnly bool, maxAttempts int, span *obs.Span) error {
	return rt.run(ctx, rt.one(), pair(thread, txn), fn, nil, RunOpts{ReadOnly: readOnly, MaxAttempts: maxAttempts, Span: span})
}

// RunOpt is Run taking the full options struct — the entrypoint gstm's
// System.Run uses, and the only one exposing blocking mode.
func (rt *Runtime) RunOpt(ctx context.Context, thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error, o RunOpts) error {
	return rt.run(ctx, rt.one(), pair(thread, txn), fn, nil, o)
}

func pair(thread txid.ThreadID, txn txid.TxnID) txid.Pair {
	return txid.Pair{Txn: txn, Thread: thread}
}

// one returns a pooled Tx of rt as a participant list of one: the head of
// the Tx's own group, so a single-shard run allocates nothing for its list.
func (rt *Runtime) one() []*Tx { return rt.pool.Get().(*Tx).group[:1] }

// run is the engine's one attempt loop, behind every entrypoint. txs are
// the transaction's participants, one pooled Tx per Runtime, rt being
// txs[0]'s: a single-shard call passes rt.one() and its body as fn, a
// cross-shard call (MultiRun) passes every participant and its body as
// many. Each attempt, in order:
//
//  1. check ctx;
//  2. consult every participant's gate, recording the span's gate phase;
//  3. reset every participant, sampling every rv before the body's first
//     read — the rule cross-shard opacity rests on (DESIGN.md, "Why
//     cross-shard commit needs no fence");
//  4. run the body once;
//  5. settle retry, error, conflict and the spurious-abort fault point;
//  6. commit: tx.commit for one participant, commitMulti for several;
//  7. the abort bookkeeping, or the commit bookkeeping, on every
//     participant.
//
// Every participant goes back to its pool when run returns, and a panic
// out of the body releases every lock first.
func (rt *Runtime) run(ctx context.Context, txs []*Tx, self txid.Pair, fn func(*Tx) error, many func([]*Tx) error, o RunOpts) error {
	span := o.Span
	multi := len(txs) > 1
	defer func() {
		r := recover()
		if r != nil {
			// A panic escaped the user's transaction body. Release every
			// lock the attempt still holds (eager mode takes them at
			// encounter time) and scrub the read/write sets so clean Txs go
			// back to the pools, then let the panic continue.
			for _, tx := range txs {
				tx.releaseLocks(0)
				tx.scrub()
			}
		}
		// txs is txs[0]'s own group slice, which the next user of txs[0]
		// rewrites: it goes back to its pool last.
		for _, tx := range txs[1:] {
			tx.rt.pool.Put(tx)
		}
		rt.pool.Put(txs[0])
		if r != nil {
			panic(r)
		}
	}()

	budget := o.MaxAttempts
	if budget <= 0 {
		budget = retry.Budget(ctx)
	}
	shard := uint64(self.Thread)
	// Cross-shard reads are always tracked: the prepare step validates
	// every participant's read set.
	track := o.Block || multi
	for attempt := 0; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				rt.tel.TxCanceled(shard)
				return fmt.Errorf("%w: %w", retry.ErrCanceled, err)
			}
		}
		for _, tx := range txs {
			if gb := tx.rt.gate.Load(); gb != nil {
				arrive(gb.g, self, span, attempt)
			}
		}
		sampled := false
		for _, tx := range txs {
			sampled = tx.reset(self, attempt, o.ReadOnly, track, span) || sampled
		}
		span.NoteAttempt()
		// The attempt's start boundary is the end of the last recorded event
		// (gate wait, queue, or the previous retry) — a field read, not a
		// clock read, so the committing fast path pays no time.Now here and
		// backoff gaps fold into the retry event that caused them.
		attStart := span.LastEndNs()

		err, conflict, retried := runBody(txs, fn, many)
		if retried {
			// The body called Retry: the attempt is abandoned (not an abort
			// — the state simply wasn't usable yet).
			releaseAll(txs) // eager mode may hold encounter-time locks
			if !o.Block {
				return retry.ErrWouldBlock
			}
			parkCtx := o.BlockCtx
			if parkCtx == nil {
				parkCtx = ctx
			}
			parked, perr := txs[0].parkOnReads(parkCtx)
			if perr != nil {
				if perr == retry.ErrWouldBlock {
					// Empty read set: no commit could ever wake us.
					return perr
				}
				span.AddSinceNs(obs.PhasePark, obs.CauseCanceled, attempt+1, attStart)
				rt.tel.TxCanceled(shard)
				return fmt.Errorf("%w: %w", retry.ErrCanceled, perr)
			}
			if parked {
				span.AddSinceNs(obs.PhasePark, obs.CauseWakeup, attempt+1, attStart)
			}
			continue
		}
		if conflict != nil {
			span.AddSinceNs(obs.PhaseRetry, conflict.cause, attempt+1, attStart)
			if rt.aborted(txs, self, conflict.byWV, conflict.cause, budget, attempt) {
				return retry.ErrBudgetExceeded
			}
			continue
		}
		if err != nil {
			releaseAll(txs)
			return err
		}
		if fi := rt.injector(); fi != nil && fi.SpuriousAbort(self, attempt) {
			span.AddSinceNs(obs.PhaseRetry, obs.CauseSpurious, attempt+1, attStart)
			if rt.aborted(txs, self, 0, obs.CauseSpurious, budget, attempt) {
				return retry.ErrBudgetExceeded
			}
			continue
		}
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		// The sink is sampled once so the clock discipline the commit chose
		// (unique ticks vs GV4/tick elision) matches the delivery decision;
		// installs racing the commit are picked up by the next transaction.
		sb := rt.sink.Load()
		var wv, byWV uint64
		var cause obs.Cause
		var ok bool
		if multi {
			wv, byWV, cause, ok = commitMulti(txs)
		} else {
			wv, byWV, cause, ok = txs[0].commit(sb != nil)
		}
		if !ok {
			span.AddSinceNs(obs.PhaseRetry, cause, attempt+1, attStart)
			if rt.aborted(txs, self, byWV, cause, budget, attempt) {
				return retry.ErrBudgetExceeded
			}
			continue
		}
		for i, tx := range txs {
			if tx.measure {
				tx.rt.tel.ObserveCommit(shard, time.Since(t0), tx.valDur, tx.validated)
			}
			tx.rt.tel.TxCommit(shard)
			if multi {
				tx.rt.tel.XShardCommits.Inc(shard)
			}
			// Every participant's sink (per-shard WAL taps, trace
			// collectors) sees the one wv, so every shard's log records a
			// cross-shard commit at its exchanged timestamp.
			if i > 0 {
				sb = tx.rt.sink.Load()
			}
			if sb != nil {
				sb.s.TxCommit(self, wv, attempt)
			}
		}
		return nil
	}
}

// aborted does an aborted attempt's bookkeeping on every participant —
// release any lock still held (eager mode takes them at encounter time),
// count and report the abort — then reports whether the call's budget is
// spent, backing off before the next attempt when it is not.
func (rt *Runtime) aborted(txs []*Tx, self txid.Pair, byWV uint64, cause obs.Cause, budget, attempt int) bool {
	for _, tx := range txs {
		tx.releaseLocks(0)
		tx.rt.noteAbort(self, byWV, cause)
	}
	if rt.budgetSpent(uint64(self.Thread), budget, attempt) {
		return true
	}
	backoff(attempt)
	return false
}

// arrive consults gate g on behalf of self, recording the wait into span's
// gate phase when the call is traced.
func arrive(g Gate, self txid.Pair, span *obs.Span, attempt int) {
	if span == nil {
		g.Arrive(self)
		return
	}
	g0 := time.Now()
	gc := obs.CauseNone
	if g.Arrive(self) == telemetry.GateEscape {
		gc = obs.CauseGateTimeout
	}
	span.AddSince(obs.PhaseGate, gc, attempt+1, g0)
}

// releaseAll restores every lock any participant holds.
func releaseAll(txs []*Tx) {
	for _, tx := range txs {
		tx.releaseLocks(0)
	}
}

// budgetSpent reports whether the aborted attempt was the last one the
// call's budget allows, counting the exhaustion when it was.
func (rt *Runtime) budgetSpent(shard uint64, budget, attempt int) bool {
	if budget > 0 && attempt+1 >= budget {
		rt.tel.TxBudgetExceeded(shard)
		return true
	}
	return false
}

// noteAbort counts an abort (under its taxonomy cause) and reports it,
// resolving the invalidating commit's identity through the registry. When
// attribution is impossible (byWV == 0 or the registry slot was recycled)
// the most recent commit is reported as a best-effort guess, flagged
// byKnown=false.
func (rt *Runtime) noteAbort(self txid.Pair, byWV uint64, cause obs.Cause) {
	rt.tel.TxAbort(uint64(self.Thread), cause)
	sb := rt.sink.Load()
	if sb == nil {
		return
	}
	if byWV != 0 {
		if by, ok := rt.reg.Lookup(byWV); ok {
			sb.s.TxAbort(self, byWV, by, true)
			return
		}
	}
	guessWV := rt.clk().now()
	by, ok := rt.reg.Lookup(guessWV)
	if !ok {
		by = txid.Pair{}
	}
	sb.s.TxAbort(self, guessWV, by, false)
}

// backoff applies bounded, contention-proportional backoff between retry
// attempts: early retries just yield, persistent losers sleep briefly so
// the winner's transaction can finish. Without it, high-contention sites
// (queue heads, heap roots) churn on the oversubscribed test machine.
func backoff(attempt int) {
	// Yield-based only: timer sleeps have ~100µs OS granularity, orders of
	// magnitude above a transaction, and their jitter would dominate the
	// very execution-time variance these experiments measure. Yield counts
	// grow with persistence so chronic losers step aside longer.
	yields := 0
	switch {
	case attempt < 2:
		// Retry immediately: most conflicts are transient.
	case attempt < 8:
		yields = 1
	case attempt < 32:
		yields = 4
	default:
		yields = 16
	}
	for i := 0; i < yields; i++ {
		spinYield()
	}
}

// runBody executes the attempt's body — many over every participant when
// it is set, otherwise fn over the only one — converting a conflictSignal
// panic into a conflict result and a retrySignal (tx.Retry) into the
// retried flag, while letting every other panic propagate.
func runBody(txs []*Tx, fn func(*Tx) error, many func([]*Tx) error) (err error, conflict *conflictSignal, retried bool) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(*conflictSignal); ok {
				conflict = c
				return
			}
			if _, ok := r.(retrySignal); ok {
				retried = true
				return
			}
			if e, ok := r.(errWriteInReadOnly); ok {
				err = e
				return
			}
			panic(r)
		}
	}()
	if many != nil {
		return many(txs), nil, false
	}
	return fn(txs[0]), nil, false
}
