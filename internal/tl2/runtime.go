package tl2

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gstm/internal/obs"
	"gstm/internal/telemetry"
	"gstm/internal/txid"
	"gstm/internal/yield"
)

// Config parameterizes a Runtime. The zero value is usable.
type Config struct {
	// Interleave, when positive, makes each transactional operation yield
	// the processor with probability 1/Interleave. It substitutes for true
	// multi-core interleaving on the single-core test machine (DESIGN.md).
	Interleave int

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
}

const (
	// maxReadSpin bounds how many times a read spins on a locked location
	// before declaring a conflict.
	maxReadSpin = 64
	// maxLockSpin bounds how many times commit-time lock acquisition spins
	// per location before aborting, TL2's deadlock-avoidance rule.
	maxLockSpin = 64
)

// EventSink receives the instrumentation stream the paper adds to TL2
// (TX_commit / TX_abort): every commit with its write version wv, and every
// abort with the wv of the commit that caused it. The wv is the whole
// attribution: a consumer pairs an abort with its commit by matching it
// against the TxCommit that carried the same wv. Implementations must be
// safe for concurrent use.
type EventSink interface {
	// TxCommit reports that p committed with write version wv after
	// aborting `aborts` times (its failed attempts). While a sink is
	// installed every single-shard commit draws a unique tick from the
	// runtime's clock, so sorting commits by wv reconstructs the commit
	// order.
	TxCommit(p txid.Pair, wv uint64, aborts int)

	// TxAbort reports that p aborted an attempt invalidated by the commit
	// at byWV. known is false when the attempt could not name that commit
	// (a lock held past the spin bound, an injected abort, or a cross-shard
	// abort produced on another participant): byWV is then this runtime's
	// clock, the most recent commit, as a best-effort guess.
	TxAbort(p txid.Pair, byWV uint64, known bool)
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
	clock *clock
	sink  atomic.Pointer[sinkBox]
	gate  atomic.Pointer[gateBox]
	fault atomic.Pointer[faultBox]
	pool  sync.Pool

	// tel holds all runtime counters (one block per thread slot) and
	// latency histograms, registered in the process-wide telemetry registry.
	tel *telemetry.Metrics
}

type sinkBox struct{ s EventSink }
type gateBox struct{ g Gate }
type faultBox struct{ f FaultInjector }

// New returns a Runtime with cfg.
func New(cfg Config) *Runtime {
	label := cfg.Label
	if label == "" {
		label = "tl2"
	}
	rt := &Runtime{cfg: cfg, tel: telemetry.New(label), clock: &globalClock}
	if cfg.PrivateClock {
		rt.clock = new(clock)
	}
	rt.pool.New = func() any {
		tx := &Tx{rt: rt}
		tx.group = []*Tx{tx}
		return tx
	}
	return rt
}

// Telemetry returns this runtime's metrics: sharded lifecycle counters
// and sampled latency histograms.
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
	return rt.tel.Load(telemetry.Commits), rt.tel.Load(telemetry.Aborts)
}

// ResetStats zeroes the cumulative telemetry — counters, latency
// histograms and gate tallies (the clock is never reset — versions must
// stay monotone).
func (rt *Runtime) ResetStats() {
	rt.tel.Reset()
}

// ResilienceStats returns the cumulative number of transactions abandoned
// because their per-call retry budget ran out, and abandoned because their
// context was canceled or its deadline passed. Both are whole-transaction
// outcomes; the per-attempt aborts they incurred along the way are counted
// by Stats as usual.
func (rt *Runtime) ResilienceStats() (budgetExceeded, canceled uint64) {
	return rt.tel.Load(telemetry.RetryBudgetExceeded), rt.tel.Load(telemetry.ContextCanceled)
}

// Retry budgets and the engine's policy sentinels. A budget bounds the
// number of *attempts* a single call may make: a budget of 1 means "no
// retries", a budget of 5 allows the initial attempt plus four retries. A
// zero or negative budget means unlimited, the classic STM contract. The
// public gstm package re-exports the sentinels; none of them marks
// corruption — no partial effects are visible and the call may be retried.
var (
	// ErrBudgetExceeded: the transaction's last budgeted attempt also
	// aborted on a conflict.
	ErrBudgetExceeded = errors.New("stm: transaction retry budget exceeded")
	// ErrWouldBlock: the body called Retry (the composable-blocking
	// primitive) while blocking was not enabled for the call, or while its
	// read set was empty so no commit could ever wake it.
	ErrWouldBlock = errors.New("stm: transaction would block")
	// ErrCanceled: the transaction was abandoned because its context was
	// canceled or its deadline passed. It wraps the context's own error, so
	// errors.Is matches this sentinel as well as context.Canceled /
	// context.DeadlineExceeded.
	ErrCanceled = errors.New("stm: transaction canceled")
)

// RunOpts bundles the per-call execution options of RunOpt, the options
// form of Run. The zero value is a plain read-write, non-blocking,
// unbounded, untraced transaction.
type RunOpts struct {
	// ReadOnly selects TL2's read-only fast path; a Write inside the body
	// returns an error without retrying.
	ReadOnly bool

	// MaxAttempts > 0 bounds attempts: when the last one aborts, the call
	// returns ErrBudgetExceeded. <= 0 is unlimited.
	MaxAttempts int

	// Span, when non-nil, receives the variance-observatory timeline: gate
	// waits, aborted attempts with causes, commit phases, and parks.
	Span *obs.Span

	// Block enables composable blocking: a tx.Retry parks the goroutine on
	// the attempt's read set until a commit changes one of those locations,
	// then the transaction re-runs. Without Block a Retry returns
	// ErrWouldBlock. Blocking forces read-set tracking even when
	// ReadOnly is set.
	Block bool

	// BlockCtx, when non-nil, bounds parks separately from the run context:
	// its cancellation or deadline ends a park (and the Run call) with
	// ErrCanceled wrapping the context's error. When nil, parks are
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

// Run is Atomic with a context, the read-only fast path and a retry
// budget. ctx may be nil (never canceled); otherwise cancellation or
// deadline expiry is checked between attempts (never mid-attempt — an
// attempt either aborts cleanly or commits) and surfaces as ctx.Err(),
// with no locks held and no writes published. readOnly selects TL2's
// fast path, which skips read-set bookkeeping because reads are validated
// at access time and a read-only commit validates nothing further; a
// Write inside fn then returns an error without retrying. maxAttempts > 0
// bounds attempts (RunOpts.MaxAttempts); <= 0 is unlimited.
func (rt *Runtime) Run(ctx context.Context, thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error, readOnly bool, maxAttempts int) error {
	return rt.run(ctx, rt.one(), pair(thread, txn), fn, nil, RunOpts{ReadOnly: readOnly, MaxAttempts: maxAttempts})
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
			// A panic escaped the user's transaction body. Locks are only
			// taken inside the commit, but release defensively anyway, and
			// scrub the read/write sets so clean Txs go back to the pools,
			// then let the panic continue.
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
	thread := uint64(self.Thread)
	// Cross-shard reads are always tracked: the prepare step validates
	// every participant's read set.
	track := o.Block || multi
	for attempt := 0; ; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				rt.tel.TxCanceled(thread)
				return fmt.Errorf("%w: %w", ErrCanceled, err)
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
		// clock read, so the committing fast path pays no obs.Now here and
		// backoff gaps fold into the retry event that caused them.
		attStart := span.LastEndNs()

		err, conflict, retried := runBody(txs, fn, many)
		if retried {
			// The body called Retry: the attempt is abandoned (not an abort
			// — the state simply wasn't usable yet).
			releaseAll(txs)
			if !o.Block {
				return ErrWouldBlock
			}
			parkCtx := o.BlockCtx
			if parkCtx == nil {
				parkCtx = ctx
			}
			parked, perr := txs[0].parkOnReads(parkCtx)
			if perr != nil {
				if perr == ErrWouldBlock {
					// Empty read set: no commit could ever wake us.
					return perr
				}
				span.AddSince(obs.PhasePark, obs.CauseCanceled, attempt+1, attStart)
				rt.tel.TxCanceled(thread)
				return fmt.Errorf("%w: %w", ErrCanceled, perr)
			}
			if parked {
				span.AddSince(obs.PhasePark, obs.CauseWakeup, attempt+1, attStart)
			}
			continue
		}
		if conflict != nil {
			span.AddSince(obs.PhaseRetry, conflict.cause, attempt+1, attStart)
			if rt.aborted(txs, self, conflict.byWV, conflict.by, conflict.cause, budget, attempt) {
				return ErrBudgetExceeded
			}
			continue
		}
		if err != nil {
			releaseAll(txs)
			return err
		}
		if fi := rt.injector(); fi != nil && fi.SpuriousAbort(self, attempt) {
			span.AddSince(obs.PhaseRetry, obs.CauseSpurious, attempt+1, attStart)
			if rt.aborted(txs, self, 0, nil, obs.CauseSpurious, budget, attempt) {
				return ErrBudgetExceeded
			}
			continue
		}
		var t0 int64
		if sampled {
			t0 = obs.Now()
		}
		// The sink is sampled once so the clock discipline the commit chose
		// (unique ticks vs GV4/tick elision) matches the delivery decision;
		// installs racing the commit are picked up by the next transaction.
		sb := rt.sink.Load()
		var wv, byWV uint64
		var by *Runtime
		var cause obs.Cause
		var ok bool
		if multi {
			wv, byWV, by, cause, ok = commitMulti(txs)
		} else {
			wv, byWV, cause, ok = txs[0].commit(sb != nil)
			by = rt
		}
		if !ok {
			span.AddSince(obs.PhaseRetry, cause, attempt+1, attStart)
			if rt.aborted(txs, self, byWV, by, cause, budget, attempt) {
				return ErrBudgetExceeded
			}
			continue
		}
		var commitNs uint64
		if sampled {
			commitNs = uint64(obs.Now() - t0)
		}
		for i, tx := range txs {
			if tx.measure {
				tx.rt.tel.ObserveCommit(commitNs, tx.valNs, tx.validated)
			}
			tx.rt.tel.TxCommit(thread)
			if multi {
				tx.rt.tel.Inc(telemetry.XShardCommits, thread)
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
// release any lock still held, count and report the abort — then reports
// whether the call's budget is spent, backing off before the next attempt
// when it is not. byWV names the invalidating commit only on by, the
// participant whose location or read validation produced it; every other
// participant reports a guess, since its private clock may have issued the
// same wv to an unrelated commit.
func (rt *Runtime) aborted(txs []*Tx, self txid.Pair, byWV uint64, by *Runtime, cause obs.Cause, budget, attempt int) bool {
	for _, tx := range txs {
		tx.releaseLocks(0)
		if tx.rt == by {
			tx.rt.noteAbort(self, byWV, cause)
		} else {
			tx.rt.noteAbort(self, 0, cause)
		}
	}
	if rt.budgetSpent(uint64(self.Thread), budget, attempt) {
		return true
	}
	yield.Backoff(attempt)
	return false
}

// arrive consults gate g on behalf of self, recording the wait into span's
// gate phase when the call is traced.
func arrive(g Gate, self txid.Pair, span *obs.Span, attempt int) {
	if span == nil {
		g.Arrive(self)
		return
	}
	g0 := obs.Now()
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
func (rt *Runtime) budgetSpent(thread uint64, budget, attempt int) bool {
	if budget > 0 && attempt+1 >= budget {
		rt.tel.TxBudgetExceeded(thread)
		return true
	}
	return false
}

// noteAbort counts an abort (under its taxonomy cause) and reports it
// against the invalidating commit byWV. With byWV == 0 (the commit is not
// knowable) the runtime's clock, the most recent commit, is reported as a
// best-effort guess, flagged known=false.
func (rt *Runtime) noteAbort(self txid.Pair, byWV uint64, cause obs.Cause) {
	rt.tel.TxAbort(uint64(self.Thread), cause)
	sb := rt.sink.Load()
	if sb == nil {
		return
	}
	if byWV != 0 {
		sb.s.TxAbort(self, byWV, true)
		return
	}
	sb.s.TxAbort(self, rt.clk().now(), false)
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
