package server

import (
	"time"

	"gstm/internal/obs"
)

// Strict-mode durability acknowledgment. In strict mode (FsyncInterval 0)
// an ack waits on an fsync, so a worker that commits a durable batch does
// not block until the batch's WAL records are synced — it captures each
// touched shard's record seq, hands the batch to the server's acker
// goroutine, and immediately starts its next batch. The acker waits for the
// seqs, credits the shards' lifecycles, and writes the client responses.
// Decoupling the wait from the worker lets group commit batch adaptively:
// while one fsync is in flight the workers keep appending, so the next one
// covers everything that accumulated, instead of each worker stalling for
// one fsync per batch.
//
// Relaxed mode has no acker: an ack waits only on a write(2), which the
// waiting worker performs itself (wal.Log.WaitAcked), so its batch settles
// on the worker like an in-memory one (see worker.settle).
//
// Reordering the acker introduces is invisible to clients: responses carry
// request IDs and per-connection ordering across workers was never
// guaranteed (a connection's requests cross to the pool in chunks dealt
// round-robin, and order holds only among the chunks one worker receives).

// ackWait is one shard sub-transaction's durability obligation, with the
// nops operations it credits to the shard's lifecycle once acked. refused
// is set when the log already refused the record at commit: there is
// nothing to wait for, only a failure to report. When spanned is set the
// sub-transaction's span rides along by value: the acker stamps its
// WAL-ack phase (the time the response was withheld for durability),
// finishes it with the terminal cause and hands it to the observatory. A
// cross-shard transaction produces one wait per participant shard but
// carries its single span on only one of them.
type ackWait struct {
	sh      int
	seq     uint64 // 0: commit carried no record; nothing to wait for
	refused error
	span    obs.Span
	spanned bool
	nops    int
}

// shardAll is the wildcard in ackItem.shardOf for an operation that spans
// every participant shard (an OpTxn): any failed wait demotes it.
const shardAll int32 = -1

// ackItem is one durable batch in flight between its worker and the
// acker. tasks/results are copies (the worker reuses its own slices);
// shardOf[i] is task i's home shard — or shardAll for a transaction — for
// mapping a failed shard's wait back onto exactly its operations; worker
// attributes the spans to the producer's observatory ring.
type ackItem struct {
	tasks   []task
	results []opResult
	shardOf []int32
	waits   []ackWait
	worker  int
}

func (s *Server) getAckItem(n int) *ackItem {
	v := s.ackPool.Get()
	if v == nil {
		v = &ackItem{}
	}
	it := v.(*ackItem)
	if cap(it.shardOf) < n {
		it.shardOf = make([]int32, n)
	}
	it.shardOf = it.shardOf[:n]
	it.tasks = it.tasks[:0]
	it.results = it.results[:0]
	it.waits = it.waits[:0]
	return it
}

// ackLoop is the server's single acker goroutine; it exits when s.acks
// closes (after every producer worker has stopped).
func (s *Server) ackLoop() {
	defer close(s.ackDone)
	for it := range s.acks {
		s.finishDurable(it)
		s.ackPool.Put(it)
	}
}

// finishDurable settles one durable batch: wait out each shard's
// obligation, demote a failed shard's operations to StatusUnavailable,
// reply, release the in-flight slots.
func (s *Server) finishDurable(it *ackItem) {
	for wi := range it.waits {
		wt := &it.waits[wi]
		sp := &wt.span
		if !wt.spanned {
			sp = nil // secondary wait of a cross-shard txn: span rides elsewhere
		}
		if s.ackShard(it.worker, wt.sh, wt.seq, wt.refused, sp, wt.nops) {
			continue
		}
		for i := range it.tasks {
			if it.shardOf[i] == shardAll || int(it.shardOf[i]) == wt.sh {
				it.results[i] = opResult{status: StatusUnavailable}
			}
		}
	}
	s.answer(it.tasks, it.results)
}

// ackShard settles shard sh's committed sub-transaction on behalf of
// worker: it waits until record seq is acked on the shard's log (seq 0:
// nothing was logged), or takes refused — the log's refusal at commit — as
// the outcome. The wait is sp's WAL-ack phase; sp (nil when the span rides
// elsewhere) is then closed with the outcome and handed to worker's ring.
// An acked sub-transaction books its nops operations on the shard's
// lifecycle; a failed one is counted as refused and reports false: its
// record never became durable, so its operations must not ack. (After a
// crash the replay won't have it — exactly what StatusUnavailable
// promises.)
func (s *Server) ackShard(worker, sh int, seq uint64, refused error, sp *obs.Span, nops int) bool {
	err := refused
	cause := obs.CauseNone
	if err == nil && seq > 0 {
		w0 := time.Now()
		err = s.wals[sh].WaitAcked(seq)
		if err != nil {
			cause = obs.CauseWALUnavailable
		}
		sp.AddSince(obs.PhaseWALAck, cause, 0, w0)
	}
	if err != nil {
		cause = obs.CauseWALUnavailable
	}
	sp.Finish(cause, time.Now().UnixNano())
	if sp != nil {
		s.obs.Collect(worker, sp)
	}
	if err != nil {
		s.router.System(sh).Telemetry().WALRefused(uint64(worker))
		return false
	}
	s.lcs[sh].noteOps(nops)
	return true
}

// stopAcker closes the hand-off channel (all workers must have exited)
// and waits for the acker to drain. Safe to call multiple times and without
// an acker.
func (s *Server) stopAcker() {
	if s.acks == nil {
		return
	}
	s.ackOnce.Do(func() { close(s.acks) })
	<-s.ackDone
}
