package tl2

import (
	"context"
	"errors"

	"gstm/internal/obs"
	"gstm/internal/telemetry"
	"gstm/internal/txid"
	"gstm/internal/yield"
)

// Cross-shard atomic commit.
//
// MultiRun executes one transaction spanning several Runtimes (shards),
// each with its own private version clock, and commits it atomically on
// all of them or none. It runs through the same attempt loop as every
// single-shard transaction (Runtime.run); only the commit step differs,
// commitMulti in place of tx.commit. That step is the TL2 commit with the
// lock set widened across shards:
//
//  1. prepare — acquire every participant's write-set locks, walking the
//     participants in the caller-given order (the router passes ascending
//     shard index, the same deterministic-ordering rule the single-shard
//     commit applies within a write set, so two cross-shard commits
//     acquire the shards they share in one global order and cannot
//     deadlock); then validate every participant's read set against its
//     home clock. Validation never elides on clock evidence: a sibling
//     shard's clock says nothing about this shard's history.
//  2. exchange — tick every participant's clock once and agree on
//     commitWV, the maximum. Ticking every home clock keeps the
//     per-shard discipline that any later transaction locking an
//     overlapping location on that shard draws a strictly larger wv.
//  3. publish — for each participant: raise its clock to commitWV
//     (versions must never exceed the clock a reader samples rv from),
//     then publish its write set at commitWV and release its locks.
//
// Any prepare failure aborts all participants with no writes published
// (cause: cross-shard-validation). No word is shared between shards: a
// reader cannot see a sweep half-applied because every sweep holds all its
// locks before it ticks any clock and the loop samples every participant's
// rv before the body runs (DESIGN.md, "Why cross-shard commit needs no
// fence"; TestCrossShardOpacity pins it).
//
// Two cross-shard commits may publish the same commitWV on a shard they
// share only when their write sets on that shard are disjoint (an
// overlapping location serializes them through its lock, and the earlier
// commit's advanceTo forces the later one's tick past its commitWV), so
// equal write versions in a shard's WAL never order-depend.

// ErrNoShards reports a MultiRun call with an empty runtime list.
var ErrNoShards = errors.New("tl2: MultiRun with no runtimes")

// MultiRun executes fn as one atomic transaction across rts — one
// sub-transaction per runtime, handed to fn as txs aligned with rts. The
// runtimes must be distinct and ordered by the caller's deterministic
// rule (the shard router passes ascending shard index); every concurrent
// MultiRun over overlapping runtime sets must use the same order.
//
// fn may be re-executed like any transaction body. With several runtimes
// the read-write discipline always applies (reads are tracked and
// re-validated at commit on every participant, even under RunOpts.ReadOnly,
// which only keeps rejecting writes). Blocking is not supported: a
// tx.Retry returns ErrWouldBlock regardless of RunOpts.Block.
func MultiRun(ctx context.Context, rts []*Runtime, thread txid.ThreadID, txn txid.TxnID, fn func(txs []*Tx) error, o RunOpts) error {
	if len(rts) == 0 {
		return ErrNoShards
	}
	txs := rts[0].one()
	for _, rt := range rts[1:] {
		txs = append(txs, rt.pool.Get().(*Tx))
	}
	txs[0].group = txs
	o.Block, o.BlockCtx = false, nil
	return rts[0].run(ctx, txs, pair(thread, txn), nil, fn, o)
}

// commitMulti is the cross-shard commit step, with tx.commit's result
// shape plus by, the participant whose read validation failed (nil when a
// lock did): prepare, exchange and publish sweep over txs (see the
// protocol above), the span's xprepare/xpublish phases recorded on
// txs[0]'s span. On failure every lock is released, nothing is published,
// and each participant counts a cross-shard abort.
//
// The fault injector's CommitDelay, consulted once, spins between
// consecutive participants' publishes — the window in which one shard
// already carries commitWV and the next does not yet.
func commitMulti(txs []*Tx) (wv, byWV uint64, by *Runtime, cause obs.Cause, ok bool) {
	lead := txs[0]
	span, att, thread := lead.span, lead.attempt+1, uint64(lead.self.Thread)
	var t0, mark int64
	if span != nil {
		t0 = obs.Now()
	}
	ok = true
	for _, tx := range txs {
		if !tx.lockWriteSet() {
			ok = false
			break
		}
	}
	if ok {
		for _, tx := range txs {
			if byWV, _, ok = tx.validateReads(); !ok {
				by = tx.rt
				break
			}
		}
	}
	if !ok {
		for _, tx := range txs {
			tx.releaseLocks(0)
			tx.rt.tel.Inc(telemetry.XShardAborts, thread)
		}
		span.AddSince(obs.PhaseXPrepare, obs.CauseXShardValidation, att, t0)
		return 0, byWV, by, obs.CauseXShardValidation, false
	}
	if span != nil {
		mark = obs.Now()
		span.Add(obs.PhaseXPrepare, obs.CauseNone, att, t0, mark-t0)
	}

	// Exchange: tick every home clock, agree on the maximum.
	for _, tx := range txs {
		if v := tx.rt.clk().tick(); v > wv {
			wv = v
		}
	}
	// Publish sweep: every participant's clock advances to the agreed
	// commit point before its locations carry it.
	delay := 0
	if fi := lead.rt.injector(); fi != nil {
		delay = fi.CommitDelay(lead.self, lead.attempt)
	}
	for i, tx := range txs {
		if i > 0 {
			yield.N(delay)
		}
		tx.rt.clk().advanceTo(wv)
		tx.publishAt(wv)
	}
	if span != nil {
		span.AddSince(obs.PhaseXPublish, obs.CauseNone, att, mark)
	}
	return wv, 0, nil, obs.CauseNone, true
}
