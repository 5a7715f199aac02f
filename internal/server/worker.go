package server

import (
	"errors"
	"sync"
	"time"

	"gstm"
	"gstm/internal/obs"
	"gstm/internal/shard"
	"gstm/internal/stmds"
	"gstm/internal/wal"
)

// Transaction sites: one static TM_BEGIN(ID) per operation kind, so the
// Thread State Automaton's (site, thread) states describe what the server
// actually does. A batch only ever coalesces operations of one kind, which
// keeps the site label exact (see DESIGN.md "Batching rules"). Sites are
// per shard: the same kind maps to the same site on every shard's
// automaton.
const (
	siteGet gstm.TxnID = iota
	sitePut
	siteAdd
	siteDel
	// siteScan is the WAL's consistent snapshot scan and recovery replay —
	// run on the dedicated scan thread (ThreadID Workers+1), outside the
	// WAL stager range, so its commits never touch a staging slot.
	siteScan
	// siteWatch is the blocking long-poll site (OpWatch/OpWaitKey), run on
	// the dedicated watch thread (ThreadID Workers+2) — any number of
	// watches may be parked on it concurrently (see watch.go).
	siteWatch
	// siteTxn is the multi-key transaction site (OpTxn), run on the
	// dedicated coordinator thread (ThreadID Workers) — inside the WAL
	// stager range, since a cross-shard transaction stages redo on every
	// participant shard's log (see coordinator.go).
	siteTxn
)

func site(op Op) gstm.TxnID {
	switch op {
	case OpGet:
		return siteGet
	case OpPut:
		return sitePut
	case OpAdd:
		return siteAdd
	default:
		return siteDel
	}
}

// task is one queued data operation awaiting a worker. enq/decNs carry the
// reader's span timestamps: when the task was handed off (unix nanos) and
// how long the server's own work before that took, so the worker can
// reconstruct the request's decode and queue-wait phases without another
// clock read. Tasks handed off together share both. b is the burst the reply
// settles a count on.
type task struct {
	req   Request
	c     *conn
	b     *burst
	enq   int64
	decNs int64
}

// chunk is the unit a connection reader hands a worker: up to Batch
// consecutive single-key requests of one burst, in arrival order. The
// worker that exhausts it puts it back, emptied, capacity kept.
type chunk struct{ tasks []task }

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// opResult is one operation's outcome, filled inside the batch
// transaction body (and therefore overwritten wholesale when the body
// re-runs after a conflict).
type opResult struct {
	status Status
	value  uint64
	delta  int64 // liveKeys adjustment, applied only after commit
}

// worker executes batches of operations as transactions on a fixed STM
// thread: worker w is gstm.ThreadID(w) on every shard it touches. A batch
// is scatter-gathered by home shard — one sub-transaction per shard, in
// ascending shard order — so a batch that happens to live on one shard
// runs exactly as the unsharded server ran it.
type worker struct {
	srv   *Server
	id    gstm.ThreadID
	queue chan *chunk

	// in.tasks[pos] is the next task to batch; in is nil between chunks. A
	// task that closes a batch is simply not advanced past.
	in  *chunk
	pos int

	batch   []task
	results []opResult
	plan    *shard.Plan

	// body (runShard), updOpt (update batches' MaxAttempts) and planOpt (the
	// spanOpts lookup) depend only on the worker, so they are built once:
	// each would otherwise be a heap allocation per batch.
	body    func(tx *gstm.Tx, sh int, idxs []int) error
	updOpt  gstm.TxOption
	planOpt shard.PlanOption

	// spans[sh] is the scratch span for shard sh's sub-transaction of the
	// current batch; spanOpts[sh] is the prebuilt option slice threading it
	// into that shard's Run call (slot 0 is refilled per batch with the
	// ReadOnly/MaxAttempts option). Reused every batch: the observatory
	// retains spans by value, so the record path never allocates.
	spans    []obs.Span
	spanOpts [][]gstm.TxOption

	// stg is the current shard sub-transaction's WAL redo staging; valid
	// only while logging is true (durable server, mutating batch).
	stg     wal.Staging
	logging bool
}

func newWorker(s *Server, id int) *worker {
	w := &worker{
		srv:     s,
		id:      gstm.ThreadID(id),
		queue:   make(chan *chunk, s.cfg.QueueDepth),
		batch:   make([]task, 0, s.cfg.Batch),
		results: make([]opResult, s.cfg.Batch),
		plan:    s.router.NewPlan(),
		spans:   make([]obs.Span, s.cfg.Shards),
		updOpt:  gstm.WithMaxAttempts(s.cfg.MaxAttempts),
	}
	w.body = w.runShard
	w.planOpt = shard.WithShardOptions(func(sh int) []gstm.TxOption { return w.spanOpts[sh] })
	w.spanOpts = make([][]gstm.TxOption, s.cfg.Shards)
	for sh := range w.spanOpts {
		w.spanOpts[sh] = []gstm.TxOption{gstm.WithMaxAttempts(0), gstm.WithSpan(&w.spans[sh])}
	}
	return w
}

func (w *worker) loop() {
	for {
		if !w.fillBatch() {
			return
		}
		w.execBatch()
	}
}

// fillBatch blocks for the first operation, then greedily takes what is
// already queued — the rest of its chunk, then further chunks — while the
// operations share the first one's kind and touch pairwise-disjoint keys.
// The first operation violating either rule stays under the cursor to lead
// the next batch — never reordered past, so request order is preserved
// within a worker. Returns false when the server is stopping.
func (w *worker) fillBatch() bool {
	w.batch = w.batch[:0]
	for len(w.batch) < w.srv.cfg.Batch {
		if w.in == nil && len(w.batch) == 0 {
			select {
			case w.in = <-w.queue:
			case <-w.srv.stop:
				return false
			}
		} else if w.in == nil {
			select {
			case w.in = <-w.queue:
			default:
				return true
			}
		}
		t := &w.in.tasks[w.pos]
		if len(w.batch) > 0 && (t.req.Op != w.batch[0].req.Op || w.batchHasKey(t.req.Key)) {
			return true
		}
		w.batch = append(w.batch, *t)
		if w.pos++; w.pos == len(w.in.tasks) {
			w.in.tasks = w.in.tasks[:0]
			chunkPool.Put(w.in)
			w.in, w.pos = nil, 0
		}
	}
	return true
}

func (w *worker) batchHasKey(k uint64) bool {
	for i := range w.batch {
		if w.batch[i].req.Key == k {
			return true
		}
	}
	return false
}

// execBatch scatter-gathers the batch by home shard, runs one transaction
// per touched shard, and replies to every operation. Operations against
// disjoint keys are independent, so folding a shard's sub-batch into one
// atomic block changes neither their results nor the store's final state
// versus running them back to back — it only spends one commit (and one
// Tseq slot) for up to Batch operations. Shards commit independently:
// a cross-shard batch is not atomic as a whole, which is fine for the
// same reason — its operations never share a key.
func (w *worker) execBatch() {
	s := w.srv
	kind := w.batch[0].req.Op
	w.plan.Build(len(w.batch), func(i int) uint64 { return w.batch[i].req.Key })
	runOpt := w.updOpt
	if kind == OpGet {
		runOpt = gstm.WithReadOnly()
	}

	// Open one span per touched shard before running: the decode and
	// queue-wait phases are reconstructed from the first homed task's
	// timestamps, then the STM run appends gate/retry/commit events.
	deq := time.Now().UnixNano()
	for _, sh := range w.plan.Active() {
		idxs := w.plan.Group(sh)
		first := &w.batch[idxs[0]]
		forced := false
		for _, i := range idxs {
			if w.batch[i].req.Trace {
				forced = true
				break
			}
		}
		sp := &w.spans[sh]
		begin := first.enq - first.decNs
		sp.Start(first.req.ID, uint8(kind), uint8(sh), uint8(w.id), len(idxs), forced, begin)
		sp.Add(obs.PhaseDecode, obs.CauseNone, 0, begin, first.decNs)
		sp.Add(obs.PhaseQueue, obs.CauseNone, 0, first.enq, deq-first.enq)
		w.spanOpts[sh][0] = runOpt
	}

	durable := s.wals != nil && kind != OpGet
	w.plan.Run(nil, w.id, site(kind), w.body, w.planOpt)

	var it *ackItem
	if durable {
		it = s.getAckItem(len(w.batch))
		it.worker = int(w.id)
	}
	for _, sh := range w.plan.Active() {
		idxs := w.plan.Group(sh)
		err := w.plan.Err(sh)
		if durable {
			for _, i := range idxs {
				it.shardOf[i] = int32(sh)
			}
		}
		if err != nil && durable {
			// The failed attempt may have staged ops; drop them before the
			// next transaction on this shard can inherit them.
			s.wals[sh].Abandon(int(w.id))
		}
		switch {
		case err == nil:
			if durable {
				// Don't block for the flush here: capture the record seq and
				// let the acker withhold the responses until it is durable
				// per the mode — written (relaxed) or fsynced (strict) —
				// while this worker moves on to its next batch. The acker
				// also does this group's accounting, post-ack, and stamps
				// the span's WAL-ack phase (the span rides in the wait).
				seq, werr := s.wals[sh].ThreadSeq(int(w.id))
				if werr != nil {
					for _, i := range idxs {
						w.results[i] = opResult{status: StatusUnavailable}
					}
					s.router.System(sh).Telemetry().WALRefused(uint64(w.id))
					w.finishSpan(sh, obs.CauseWALUnavailable)
					continue
				}
				var delta int64
				for _, i := range idxs {
					delta += w.results[i].delta
				}
				it.waits = append(it.waits, ackWait{sh: sh, seq: seq, span: w.spans[sh], spanned: true, nops: len(idxs), delta: delta})
				continue
			}
			var delta int64
			for _, i := range idxs {
				delta += w.results[i].delta
			}
			if delta != 0 {
				s.liveKeys.Add(delta)
			}
			s.batches.Add(1)
			s.batchedOps.Add(uint64(len(idxs)))
			s.lcs[sh].noteOps(len(idxs))
			w.finishSpan(sh, obs.CauseNone)
		case errors.Is(err, errWALUnavailable) || errors.Is(err, wal.ErrFailed):
			for _, i := range idxs {
				w.results[i] = opResult{status: StatusUnavailable}
			}
			s.router.System(sh).Telemetry().WALRefused(uint64(w.id))
			w.finishSpan(sh, obs.CauseWALUnavailable)
		case errors.Is(err, gstm.ErrRetryBudgetExhausted):
			for _, i := range idxs {
				w.results[i] = opResult{status: StatusBudget}
			}
			w.finishSpan(sh, obs.CauseRetryBudget)
		case errors.Is(err, gstm.ErrCanceled):
			for _, i := range idxs {
				w.results[i] = opResult{status: StatusCanceled}
			}
			w.finishSpan(sh, obs.CauseCanceled)
		default:
			for _, i := range idxs {
				w.results[i] = opResult{status: StatusBadRequest}
			}
			// Not in the abort taxonomy (a body error, not an STM outcome);
			// spurious is the closest "not a modeled conflict" label.
			w.finishSpan(sh, obs.CauseSpurious)
		}
	}

	if durable {
		// Hand the batch to the acker (copies: these slices are reused by
		// the next batch); it writes the responses and releases inflight.
		it.tasks = append(it.tasks[:0], w.batch...)
		it.results = append(it.results[:0], w.results[:len(w.batch)]...)
		s.acks <- it
		return
	}
	s.answer(w.batch, w.results)
}

// runShard is the current batch's transaction body on shard sh.
func (w *worker) runShard(tx *gstm.Tx, sh int, idxs []int) error {
	s, kind := w.srv, w.batch[0].req.Op
	w.logging = false
	if s.wals != nil && kind != OpGet {
		// Fail fast on a dead log: committing state whose durability
		// can never be promised would make memory diverge from disk.
		if s.wals[sh].Failed() {
			return errWALUnavailable
		}
		// Stage inside the body so a retry starts a fresh record; the
		// commit event stamps the staged ops with this commit's wv.
		w.stg = s.wals[sh].Stage(int(w.id), uint16(site(kind)))
		w.logging = true
	}
	st := s.stores[sh]
	for _, i := range idxs {
		w.results[i] = w.applyOp(tx, st, w.batch[i].req)
	}
	return nil
}

// answer replies to every task with its result and releases its in-flight
// slot.
func (s *Server) answer(tasks []task, results []opResult) {
	for i := range tasks {
		t := &tasks[i]
		t.c.reply(Response{ID: t.req.ID, Status: results[i].status, Value: results[i].value}, t.b)
		s.inflight.Done()
	}
}

// applyOp performs one operation inside shard st's sub-transaction,
// staging each mutation's redo image for the WAL when logging is on.
func (w *worker) applyOp(tx *gstm.Tx, st *stmds.HashTable[uint64], req Request) opResult {
	k := int64(req.Key)
	switch req.Op {
	case OpGet:
		v, ok := st.Get(tx, k)
		if !ok {
			return opResult{status: StatusNotFound}
		}
		return opResult{value: v}
	case OpPut:
		if st.Set(tx, k, req.Arg) {
			w.stagePut(req.Key, req.Arg)
			return opResult{value: 1}
		}
		st.InsertNoCount(tx, k, req.Arg)
		w.stagePut(req.Key, req.Arg)
		return opResult{value: 0, delta: 1}
	case OpAdd:
		if v, ok := st.Get(tx, k); ok {
			nv := uint64(int64(v) + int64(req.Arg))
			st.Set(tx, k, nv)
			w.stagePut(req.Key, nv)
			return opResult{value: nv}
		}
		st.InsertNoCount(tx, k, req.Arg)
		w.stagePut(req.Key, req.Arg)
		return opResult{value: req.Arg, delta: 1}
	default: // OpDel
		if !st.RemoveNoCount(tx, k) {
			return opResult{status: StatusNotFound}
		}
		if w.logging {
			w.stg.Del(req.Key)
		}
		return opResult{delta: -1}
	}
}

func (w *worker) stagePut(key, val uint64) {
	if w.logging {
		w.stg.Put(key, val)
	}
}

// finishSpan closes shard sh's scratch span with the sub-transaction's
// terminal cause and hands it to the observatory (which copies it out).
func (w *worker) finishSpan(sh int, cause obs.Cause) {
	sp := &w.spans[sh]
	sp.Finish(cause, time.Now().UnixNano())
	w.srv.obs.Collect(int(w.id), sp)
}
