package gstm

import (
	"context"

	"gstm/internal/tl2"
)

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
	// The participants' runtimes, on the stack for up to eight systems.
	var buf [8]*tl2.Runtime
	rts := buf[:0]
	for _, s := range systems {
		rts = append(rts, s.rt)
	}
	var o tl2.RunOpts
	applyTxOptions(&o, opts)
	return tl2.MultiRun(ctx, rts, thread, txn, fn, o)
}
