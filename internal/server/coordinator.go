package server

import (
	"errors"
	"time"

	"gstm"
	"gstm/internal/obs"
	"gstm/internal/shard"
	"gstm/internal/wal"
)

// The coordinator executes OpTxn multi-key transactions. It is one
// dedicated goroutine draining its own queue, running every transaction
// as gstm.ThreadID(Workers) at site siteTxn — a single stable (site,
// thread) label for the TSA on every shard it touches. Single-shard
// transactions degenerate to the ordinary Run fast path inside
// Router.RunMulti; cross-shard ones go through the all-or-nothing commit
// protocol (DESIGN.md "Cross-shard commit").
//
// Durability: the coordinator stages each participant shard's redo on
// that shard's log from inside the body (re-staged per attempt, like the
// workers), and on success hands the acker ONE item carrying one task and
// one wait per participant. Every record of a cross-shard commit carries
// the same exchanged write version, so replay on any shard positions the
// transaction identically in the global wv order.

// txnTask is one queued OpTxn awaiting the coordinator. ops is owned by
// the task (decoded off the connection's reusable payload buffer).
type txnTask struct {
	task
	ops []TxnOp
}

// coordThread is the STM thread every OpTxn transaction runs as. It sits
// inside the WAL stager range (slots 0..Workers), unlike the scan and
// watch threads above it.
func (s *Server) coordThread() gstm.ThreadID { return gstm.ThreadID(s.cfg.Workers) }

type coordinator struct {
	srv   *Server
	queue chan txnTask

	// Per-transaction scratch, reused so the steady-state path allocates
	// only what RunMulti itself needs.
	byShard [][]int // byShard[sh]: sub-op indexes homed on shard sh
	shards  []int   // participant shards of the current transaction
	deltas  []int64 // deltas[i]: sub-op i's live-key adjustment
	stgs    []wal.Staging
	logging bool
	span    obs.Span
}

func newCoordinator(s *Server) *coordinator {
	return &coordinator{
		srv:     s,
		queue:   make(chan txnTask, s.cfg.QueueDepth),
		byShard: make([][]int, s.cfg.Shards),
		stgs:    make([]wal.Staging, s.cfg.Shards),
	}
}

func (co *coordinator) loop() {
	for {
		select {
		case t := <-co.queue:
			co.execTxn(t)
		case <-co.srv.stop:
			return
		}
	}
}

// execTxn runs one multi-key transaction to completion and writes (or
// hands to the acker) its single response.
func (co *coordinator) execTxn(t txnTask) {
	s := co.srv
	for sh := range co.byShard {
		co.byShard[sh] = co.byShard[sh][:0]
	}
	co.shards = co.shards[:0]
	mutating := false
	for i, op := range t.ops {
		sh := s.router.HomeOf(op.Key)
		if len(co.byShard[sh]) == 0 {
			co.shards = append(co.shards, sh)
		}
		co.byShard[sh] = append(co.byShard[sh], i)
		if op.Op != OpGet {
			mutating = true
		}
	}

	sp := &co.span
	begin := t.enq - t.decNs
	deq := time.Now().UnixNano()
	sp.Start(t.req.ID, uint8(OpTxn), uint8(co.shards[0]), uint8(s.coordThread()), len(t.ops), t.req.Trace, begin)
	sp.Add(obs.PhaseDecode, obs.CauseNone, 0, begin, t.decNs)
	sp.Add(obs.PhaseQueue, obs.CauseNone, 0, t.enq, deq-t.enq)

	durable := s.wals != nil && mutating
	var value uint64
	var delta int64
	err := s.router.RunMulti(nil, co.shards, s.coordThread(), siteTxn, func(m *shard.MultiTx) error {
		co.logging = false
		value, delta = 0, 0
		if durable {
			for _, sh := range m.Shards() {
				if s.wals[sh].Failed() {
					return errWALUnavailable
				}
			}
			// Stage inside the body so a retry starts fresh records; every
			// participant's commit event stamps its staged ops with the one
			// exchanged write version.
			for _, sh := range m.Shards() {
				co.stgs[sh] = s.wals[sh].Stage(int(s.coordThread()), uint16(siteTxn))
			}
			co.logging = true
		}
		co.deltas = co.deltas[:0]
		for _, op := range t.ops {
			sh := s.router.HomeOf(op.Key)
			v, d := co.applyTxnOp(m.On(sh), sh, op)
			value = v
			delta += d
			co.deltas = append(co.deltas, d)
		}
		return nil
	}, gstm.WithMaxAttempts(s.cfg.MaxAttempts), gstm.WithSpan(sp))

	resp := Response{ID: t.req.ID, Value: value}
	if err != nil {
		if durable {
			// A failed attempt may have staged ops on any participant; drop
			// them before the coordinator's next transaction on those shards.
			for _, sh := range co.shards {
				s.wals[sh].Abandon(int(s.coordThread()))
			}
		}
		switch {
		case errors.Is(err, errWALUnavailable) || errors.Is(err, wal.ErrFailed):
			resp.Status = StatusUnavailable
			for _, sh := range co.shards {
				s.router.System(sh).Telemetry().WALRefused(uint64(s.coordThread()))
			}
			co.finish(obs.CauseWALUnavailable)
		case errors.Is(err, gstm.ErrRetryBudgetExhausted):
			resp.Status = StatusBudget
			co.finish(obs.CauseRetryBudget)
		case errors.Is(err, gstm.ErrCanceled):
			resp.Status = StatusCanceled
			co.finish(obs.CauseCanceled)
		default:
			resp.Status = StatusBadRequest
			co.finish(obs.CauseSpurious)
		}
		co.respond(t, resp)
		return
	}

	if durable {
		it := s.getAckItem(1)
		it.worker = int(s.coordThread())
		it.shardOf[0] = shardAll
		refused := false
		for _, sh := range co.shards {
			seq, werr := s.wals[sh].ThreadSeq(int(s.coordThread()))
			if werr != nil {
				refused = true
				s.router.System(sh).Telemetry().WALRefused(uint64(s.coordThread()))
				continue
			}
			var shDelta int64
			for _, i := range co.byShard[sh] {
				shDelta += co.deltas[i]
			}
			it.waits = append(it.waits, ackWait{sh: sh, seq: seq, nops: len(co.byShard[sh]), delta: shDelta})
		}
		if refused {
			// At least one participant's log refused the record: the commit
			// executed in memory but its durability cannot be promised.
			s.ackPool.Put(it)
			resp.Status = StatusUnavailable
			co.finish(obs.CauseWALUnavailable)
			co.respond(t, resp)
			return
		}
		// The span rides on the first wait; the others are span-less so the
		// observatory sees exactly one record per transaction.
		it.waits[0].span = co.span
		it.waits[0].spanned = true
		it.tasks = append(it.tasks, t.task)
		it.results = append(it.results, opResult{status: resp.Status, value: resp.Value, delta: delta})
		s.acks <- it
		return
	}

	if delta != 0 {
		s.liveKeys.Add(delta)
	}
	for _, sh := range co.shards {
		s.batches.Add(1)
		s.batchedOps.Add(uint64(len(co.byShard[sh])))
		s.lcs[sh].noteOps(len(co.byShard[sh]))
	}
	co.finish(obs.CauseNone)
	co.respond(t, resp)
}

// applyTxnOp performs one sub-operation on its home shard's
// sub-transaction. Sub-op semantics are unconditional: reads of absent
// keys yield 0 and deletes of absent keys are no-ops, so a transaction
// never fails on absence (status codes describe the whole transaction).
func (co *coordinator) applyTxnOp(tx *gstm.Tx, sh int, op TxnOp) (value uint64, delta int64) {
	st := co.srv.stores[sh]
	k := int64(op.Key)
	switch op.Op {
	case OpGet:
		v, _ := st.Get(tx, k)
		return v, 0
	case OpPut:
		if st.Set(tx, k, op.Arg) {
			co.stagePut(sh, op.Key, op.Arg)
			return op.Arg, 0
		}
		st.InsertNoCount(tx, k, op.Arg)
		co.stagePut(sh, op.Key, op.Arg)
		return op.Arg, 1
	case OpAdd:
		if v, ok := st.Get(tx, k); ok {
			nv := uint64(int64(v) + int64(op.Arg))
			st.Set(tx, k, nv)
			co.stagePut(sh, op.Key, nv)
			return nv, 0
		}
		st.InsertNoCount(tx, k, op.Arg)
		co.stagePut(sh, op.Key, op.Arg)
		return op.Arg, 1
	default: // OpDel
		if !st.RemoveNoCount(tx, k) {
			return 0, 0
		}
		if co.logging {
			co.stgs[sh].Del(op.Key)
		}
		return 0, -1
	}
}

func (co *coordinator) stagePut(sh int, key, val uint64) {
	if co.logging {
		co.stgs[sh].Put(key, val)
	}
}

func (co *coordinator) finish(cause obs.Cause) {
	co.span.Finish(cause, time.Now().UnixNano())
	co.srv.obs.Collect(int(co.srv.coordThread()), &co.span)
}

func (co *coordinator) respond(t txnTask, r Response) {
	t.c.reply(r, t.b)
	co.srv.inflight.Done()
}
