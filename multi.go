package gstm

import (
	"context"
	"sync"

	"gstm/internal/tl2"
)

// multiCall is RunMulti's pooled per-call scratch: the runtimes list and
// the resolved options, which would otherwise cost an allocation each.
type multiCall struct {
	rts []*tl2.Runtime
	set txSettings
}

var multiCalls = sync.Pool{New: func() any { return new(multiCall) }}

// RunMulti executes fn as one atomic transaction spanning several
// Systems: one sub-transaction per system, handed to fn as txs aligned
// with systems, all committing at one exchanged write version or none
// committing at all. The systems must be distinct, each with its own
// clock (Config.PrivateClock), and every concurrent RunMulti over
// overlapping systems must list them in the same order — the shard
// router's RunMulti arranges both.
//
// Options: WithReadOnly rejects writes but (unlike single-system runs)
// still tracks and validates reads — cross-shard consistency always
// needs commit-time validation; WithMaxAttempts and WithSpan work as in
// Run (the span records cross-shard commits under the xprepare/xpublish
// phases). Blocking is not supported: a tx.Retry returns ErrWouldBlock
// even with WithBlocking.
func RunMulti(ctx context.Context, systems []*System, thread ThreadID, txn TxnID, fn func(txs []*Tx) error, opts ...TxOption) error {
	c := multiCalls.Get().(*multiCall)
	for _, o := range opts {
		o(&c.set)
	}
	for _, s := range systems {
		c.rts = append(c.rts, s.rt)
	}
	err := tl2.MultiRun(ctx, c.rts, thread, txn, fn, tl2.RunOpts{
		ReadOnly:    c.set.readOnly,
		MaxAttempts: c.set.maxAttempts,
		Span:        c.set.span,
	})
	clear(c.rts)
	c.rts, c.set = c.rts[:0], txSettings{}
	multiCalls.Put(c)
	return err
}
