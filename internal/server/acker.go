package server

import (
	"time"

	"gstm/internal/obs"
)

// Asynchronous durability acknowledgment. A worker that commits a durable
// batch does not block until the batch's WAL records are flushed — it
// captures each touched shard's record seq, hands the batch to the
// server's acker goroutine, and immediately starts its next batch. The
// acker waits for the seqs per the durability mode, performs the
// post-commit accounting, and writes the client responses. Decoupling the
// wait from the worker lets group commit batch adaptively: while one
// flush is in flight the workers keep appending, so the next write(2)
// carries everything that accumulated, instead of each worker stalling
// for one flush cycle per batch.
//
// Reordering this introduces is invisible to clients: responses carry
// request IDs and per-connection ordering across workers was never
// guaranteed (a connection's requests cross to the pool in chunks dealt
// round-robin, and order holds only among the chunks one worker receives).

// ackWait is one shard sub-transaction's durability obligation, with its
// post-ack accounting precomputed (nops operations, delta live-key
// adjustment). refused is set when the log already refused the record at
// commit: there is nothing to wait for, only a failure to report. When
// spanned is set the sub-transaction's span rides along by value: the
// acker stamps its WAL-ack phase (the time the response was withheld for
// durability), finishes it with the terminal cause and hands it to the
// observatory. A cross-shard transaction produces one wait per participant
// shard but carries its single span on only one of them.
type ackWait struct {
	sh      int
	seq     uint64 // 0: commit carried no record; nothing to wait for
	refused error
	span    obs.Span
	spanned bool
	nops    int
	delta   int64
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
	}
}

// finishDurable settles one durable batch: wait out each shard's
// obligation, demote a failed shard's operations to StatusUnavailable,
// account the survivors, reply, release the in-flight slots.
func (s *Server) finishDurable(it *ackItem) {
	for wi := range it.waits {
		wt := &it.waits[wi]
		sp := &wt.span
		if !wt.spanned {
			sp = nil // secondary wait of a cross-shard txn: span rides elsewhere
		}
		err := wt.refused
		if err == nil && wt.seq > 0 {
			w0 := time.Now()
			err = s.wals[wt.sh].WaitAcked(wt.seq)
			cause := obs.CauseNone
			if err != nil {
				cause = obs.CauseWALUnavailable
			}
			sp.AddSince(obs.PhaseWALAck, cause, 0, w0)
		}
		if err != nil {
			// The commit executed in memory but its record never became
			// durable; the ack must not happen. (After a crash the replay
			// won't have it — exactly what StatusUnavailable promises.)
			sp.Finish(obs.CauseWALUnavailable, time.Now().UnixNano())
			if sp != nil {
				s.obs.Collect(it.worker, sp)
			}
			s.router.System(wt.sh).Telemetry().WALRefused(uint64(it.worker))
			for i := range it.tasks {
				if it.shardOf[i] == shardAll || int(it.shardOf[i]) == wt.sh {
					it.results[i] = opResult{status: StatusUnavailable}
				}
			}
			continue
		}
		sp.Finish(obs.CauseNone, time.Now().UnixNano())
		if sp != nil {
			s.obs.Collect(it.worker, sp)
		}
		s.account(wt.sh, wt.nops, wt.delta)
	}

	s.answer(it.tasks, it.results)
	s.ackPool.Put(it)
}

// stopAcker closes the hand-off channel (all workers must have exited)
// and waits for the acker to drain. Safe to call multiple times and with
// durability off.
func (s *Server) stopAcker() {
	if s.acks == nil {
		return
	}
	s.ackOnce.Do(func() { close(s.acks) })
	<-s.ackDone
}
