package gstm

import (
	"context"

	"gstm/internal/obs"
	"gstm/internal/tl2"
)

// TxOption configures one Run call. Options are plain values — a kind and
// its argument, applied straight onto the engine's run options — so passing
// them allocates nothing, whether built inline or kept in a reused slice.
//
// All constructors follow the With* naming convention (WithReadOnly,
// WithMaxAttempts, WithSpan, WithBlocking). The pre-v1
// spellings ReadOnly and MaxAttempts are gone; see the README migration
// table.
type TxOption struct {
	kind txOptionKind
	n    int
	span *obs.Span
	ctx  context.Context
}

type txOptionKind uint8

const (
	optReadOnly txOptionKind = iota + 1
	optMaxAttempts
	optSpan
	optBlocking
)

// applyTxOptions sets each option on o; a later option of the same kind
// wins.
func applyTxOptions(o *tl2.RunOpts, opts []TxOption) {
	for i := range opts {
		switch opt := &opts[i]; opt.kind {
		case optReadOnly:
			o.ReadOnly = true
		case optMaxAttempts:
			o.MaxAttempts = opt.n
		case optSpan:
			o.Span = opt.span
		case optBlocking:
			o.Block, o.BlockCtx = true, opt.ctx
		}
	}
}

// WithReadOnly selects TL2's read-only fast path: no read-set bookkeeping,
// because access-time validation already covers a transaction that writes
// nothing. A Write inside the body returns an error without retrying.
// (Combined with WithBlocking, reads are tracked after all — a park needs
// to know what was read — but the commit stays validation-free.)
func WithReadOnly() TxOption {
	return TxOption{kind: optReadOnly}
}

// WithMaxAttempts bounds the attempts one Run call may make: n allows the
// initial attempt plus n-1 retries; when the last allowed attempt aborts
// on a conflict Run returns ErrRetryBudgetExhausted. n <= 0 means
// unlimited (the classic STM contract).
func WithMaxAttempts(n int) TxOption {
	return TxOption{kind: optMaxAttempts, n: n}
}

// WithSpan attaches a variance-observatory span to the Run call: gate
// waits, every aborted attempt (with its taxonomy cause) and the commit
// protocol's lock/validate/publish phases are recorded into sp's timeline.
// sp may be nil (the option is then a no-op). The caller owns sp's
// lifecycle — Start it before Run and Finish it after; Run only appends
// events. The untraced path (no WithSpan) records nothing and allocates
// nothing.
func WithSpan(sp *Span) TxOption {
	return TxOption{kind: optSpan, span: sp}
}

// WithBlocking enables composable blocking for the Run call: when the
// transaction body calls tx.Retry (directly, or because every Select
// alternative retried), the goroutine parks on the locations the attempt
// read and the transaction re-runs when a concurrent commit changes one of
// them — no polling, no spin-retrying. ctx bounds the parks: its
// cancellation or deadline ends a park (and the Run call) with an error
// matching ErrCanceled. A nil ctx bounds parks by Run's own context
// instead; with neither, a park waits indefinitely.
//
// Parked time is visible in the variance observatory as the PhasePark
// phase ("wakeup" cause) and counted by gstm_tx_parked_total.
func WithBlocking(ctx context.Context) TxOption {
	return TxOption{kind: optBlocking, ctx: ctx}
}

// Run executes fn transactionally as transaction site txn on worker
// thread — the package's single transactional entrypoint.
//
// fn may be re-executed after conflicts and must confine its effects to
// transactional Reads and Writes; a non-nil error from fn aborts the
// attempt without retry and is returned verbatim.
//
// ctx may be nil, meaning not cancelable — the fastest path, with no
// per-attempt check. Otherwise cancellation or deadline expiry is checked
// between attempts (an in-flight attempt always finishes aborting or
// committing first) and surfaces as an error matching both ErrCanceled
// and the context's own error, with no locks held and no writes
// published. A retry bound set with WithMaxAttempts turns budget
// exhaustion into ErrRetryBudgetExhausted.
//
// A tx.Retry inside fn returns ErrWouldBlock unless WithBlocking enabled
// parking for this call.
func (s *System) Run(ctx context.Context, thread ThreadID, txn TxnID, fn func(*Tx) error, opts ...TxOption) error {
	var o tl2.RunOpts
	applyTxOptions(&o, opts)
	return s.rt.RunOpt(ctx, thread, txn, fn, o)
}
