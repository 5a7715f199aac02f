package server

import (
	"errors"
	"sync"
	"time"

	"gstm"
	"gstm/internal/obs"
	"gstm/internal/shard"
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
	// siteScan is the WAL's consistent snapshot scan and recovery replay,
	// run on the scan thread.
	siteScan
	// siteWatch is the blocking long-poll site (OpWatch/OpWaitKey), run on
	// the watch thread — any number of watches may be parked on it
	// concurrently (see watch.go).
	siteWatch
	// siteTxn is the multi-key transaction site (OpTxn). Whichever worker
	// receives the transaction runs it as itself, staging redo on every
	// participant shard's log (see execTxn).
	siteTxn
)

// STM threads. Worker i runs everything it executes as gstm.ThreadID(i),
// 0 <= i < Workers, and owns stager slot i on every shard's WAL
// (wal.Config.Threads = Workers). Two more sit beyond the pool, each with
// its own observatory ring so their spans never land in a worker's:
//   - the scan thread runs the WAL's snapshot scans. It is outside the
//     stager range, so the log ignores its commit events.
//   - the watch thread runs every OpWatch/OpWaitKey long-poll, any number
//     of them parked at once: one stable TSA label instead of Workers noisy
//     ones.
func (s *Server) scanThread() gstm.ThreadID  { return gstm.ThreadID(s.cfg.Workers) }
func (s *Server) watchThread() gstm.ThreadID { return gstm.ThreadID(s.cfg.Workers + 1) }

// threads counts every STM thread: the pool and the two above it.
func (cfg Config) threads() int { return cfg.Workers + 2 }

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

// task is one queued data request awaiting a worker. enq/decNs carry the
// reader's span timestamps: when the task was handed off (unix nanos) and
// how long the server's own work before that took, so the worker can
// reconstruct the request's decode and queue-wait phases without another
// clock read. Tasks handed off together share both. b is the burst the reply
// settles a count on. txn holds an OpTxn's sub-operations (nil otherwise).
type task struct {
	req   Request
	c     *conn
	b     *burst
	enq   int64
	decNs int64
	txn   *txnBody
}

// txnBody carries one OpTxn's sub-operations from the reader that decoded
// them to the worker that runs them, which puts it back.
type txnBody struct{ ops []TxnOp }

var txnPool = sync.Pool{New: func() any { return new(txnBody) }}

// chunk is the unit a connection reader hands a worker: up to Batch
// consecutive data requests of one burst, in arrival order. The worker
// that exhausts it puts it back, emptied, capacity kept.
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
// runs exactly as the unsharded server ran it. An OpTxn is a batch of one,
// run as one transaction across its shards.
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
	deltas  []int64 // deltas[sh]: the current OpTxn's live-key change on shard sh

	// body (runShard), multi (runTxn), updOpt (MaxAttempts) and planOpt
	// (the spanOpts lookup) depend only on the worker, so they are built
	// once: each would otherwise be a heap allocation per batch.
	body    func(tx *gstm.Tx, sh int, idxs []int) error
	multi   func(m *shard.MultiTx) error
	updOpt  gstm.TxOption
	planOpt shard.PlanOption

	// spans[sh] is the scratch span for shard sh's sub-transaction of the
	// current batch; spanOpts[sh] is the prebuilt option slice threading it
	// into that shard's Run call (slot 0 is refilled per batch with the
	// ReadOnly/MaxAttempts option). Reused every batch: the observatory
	// retains spans by value, so the record path never allocates.
	spans    []obs.Span
	spanOpts [][]gstm.TxOption

	// durable marks the current batch as one whose commits the WAL must
	// acknowledge (durable server, mutating batch). stgs[sh] is shard sh's
	// redo staging for the current attempt, valid only while logging.
	durable bool
	stgs    []wal.Staging
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
		deltas:  make([]int64, s.cfg.Shards),
		spans:   make([]obs.Span, s.cfg.Shards),
		stgs:    make([]wal.Staging, s.cfg.Shards),
		updOpt:  gstm.WithMaxAttempts(s.cfg.MaxAttempts),
	}
	w.body = w.runShard
	w.multi = w.runTxn
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
// An OpTxn is always a batch of one. The first operation violating a rule
// stays under the cursor to lead the next batch — never reordered past, so
// request order is preserved within a worker. Returns false when the server
// is stopping.
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
		if w.batch[0].req.Op == OpTxn {
			return true
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
	if kind == OpTxn {
		w.execTxn()
		return
	}
	w.plan.Build(len(w.batch), func(i int) uint64 { return w.batch[i].req.Key })
	runOpt := w.updOpt
	if kind == OpGet {
		runOpt = gstm.WithReadOnly()
	}

	// Open one span per touched shard before running, from the first homed
	// task's stamps; the STM run appends gate/retry/commit events.
	deq := time.Now().UnixNano()
	for _, sh := range w.plan.Active() {
		idxs := w.plan.Group(sh)
		forced := false
		for _, i := range idxs {
			if w.batch[i].req.Trace {
				forced = true
				break
			}
		}
		w.openSpan(sh, &w.batch[idxs[0]], len(idxs), forced, deq)
		w.spanOpts[sh][0] = runOpt
	}

	w.durable = s.wals != nil && kind != OpGet
	w.plan.Run(nil, w.id, site(kind), w.body, w.planOpt)

	var it *ackItem
	if w.durable {
		it = s.getAckItem(len(w.batch))
	}
	act := w.plan.Active()
	for j, sh := range act {
		idxs := w.plan.Group(sh)
		if it != nil {
			for _, i := range idxs {
				it.shardOf[i] = int32(sh)
			}
		}
		if err := w.plan.Err(sh); err != nil {
			st := w.fail(err, sh, act[j:j+1])
			for _, i := range idxs {
				w.results[i] = opResult{status: st}
			}
			continue
		}
		var delta int64
		for _, i := range idxs {
			delta += w.results[i].delta
		}
		w.settle(it, sh, len(idxs), delta, true)
	}
	w.deliver(it)
}

// execTxn runs the batch's one OpTxn as a single transaction over every
// shard its sub-ops home to: Router.RunMulti commits all participants at
// one exchanged write version, or none (DESIGN.md "Cross-shard commit").
// One span, opened on the first participant, covers the whole transaction.
func (w *worker) execTxn() {
	s, t := w.srv, &w.batch[0]
	ops := t.txn.ops
	w.plan.Build(len(ops), func(i int) uint64 { return ops[i].Key })
	w.durable = false
	for i := range ops {
		if ops[i].Op != OpGet {
			w.durable = s.wals != nil
		}
	}
	parts := w.plan.Active()
	first := parts[0]
	w.openSpan(first, t, len(ops), t.req.Trace, time.Now().UnixNano())
	w.spanOpts[first][0] = w.updOpt
	err := s.router.RunMulti(nil, parts, w.id, siteTxn, w.multi, w.spanOpts[first]...)
	txnPool.Put(t.txn)
	t.txn = nil

	if err != nil {
		w.results[0] = opResult{status: w.fail(err, first, parts)}
		s.answer(w.batch, w.results)
		return
	}
	var it *ackItem
	if w.durable {
		it = s.getAckItem(1)
		it.shardOf[0] = shardAll
	}
	for _, sh := range parts {
		w.settle(it, sh, len(w.plan.Group(sh)), w.deltas[sh], sh == first)
	}
	w.deliver(it)
}

// openSpan starts shard sh's scratch span for a (sub-)transaction of n
// operations led by task t: its decode and queue-wait phases are
// reconstructed from t's stamps, deq being when the worker took it up.
func (w *worker) openSpan(sh int, t *task, n int, forced bool, deq int64) {
	sp := &w.spans[sh]
	begin := t.enq - t.decNs
	sp.Start(t.req.ID, uint8(t.req.Op), uint8(sh), uint8(w.id), n, forced, begin)
	sp.Add(obs.PhaseDecode, obs.CauseNone, 0, begin, t.decNs)
	sp.Add(obs.PhaseQueue, obs.CauseNone, 0, t.enq, deq-t.enq)
}

// fail closes span sh of a transaction that did not commit and returns
// the status its operations answer. parts are the shards it ran on: their
// logs drop what the failed attempt staged, before this worker's next
// transaction there can inherit it, and a refusing log is counted on each.
func (w *worker) fail(err error, sh int, parts []int) Status {
	st, cause := failure(err)
	for _, p := range parts {
		if w.durable {
			w.srv.wals[p].Abandon(int(w.id))
		}
		if st == StatusUnavailable {
			w.srv.router.System(p).Telemetry().WALRefused(uint64(w.id))
		}
	}
	w.finishSpan(sh, cause)
	return st
}

// failure maps a transaction's error to the status its operations answer
// and its span's terminal cause.
func failure(err error) (Status, obs.Cause) {
	switch {
	case errors.Is(err, errWALUnavailable) || errors.Is(err, wal.ErrFailed):
		return StatusUnavailable, obs.CauseWALUnavailable
	case errors.Is(err, gstm.ErrRetryBudgetExhausted):
		return StatusBudget, obs.CauseRetryBudget
	case errors.Is(err, gstm.ErrCanceled):
		return StatusCanceled, obs.CauseCanceled
	default:
		// Not in the abort taxonomy (a body error, not an STM outcome);
		// spurious is the closest "not a modeled conflict" label.
		return StatusBadRequest, obs.CauseSpurious
	}
}

// settle books shard sh's committed sub-transaction of nops operations and
// delta live keys; spanned says sh's span belongs to it. In memory (it is
// nil) the booking happens at once. Durable, the sub-transaction becomes a
// wait on item it: the acker withholds the replies until the record is
// durable per the mode — written (relaxed) or fsynced (strict) — while this
// worker moves on, then books it and stamps the span's WAL-ack phase.
func (w *worker) settle(it *ackItem, sh, nops int, delta int64, spanned bool) {
	if it == nil {
		w.srv.account(sh, nops, delta)
		if spanned {
			w.finishSpan(sh, obs.CauseNone)
		}
		return
	}
	seq, err := w.srv.wals[sh].ThreadSeq(int(w.id))
	wt := ackWait{sh: sh, seq: seq, refused: err, nops: nops, delta: delta}
	if spanned {
		wt.span, wt.spanned = w.spans[sh], true
	}
	it.waits = append(it.waits, wt)
}

// deliver answers the batch — through the acker when it is durable (copies:
// the batch's slices are reused by the next one).
func (w *worker) deliver(it *ackItem) {
	if it == nil {
		w.srv.answer(w.batch, w.results)
		return
	}
	it.worker = int(w.id)
	it.tasks = append(it.tasks[:0], w.batch...)
	it.results = append(it.results[:0], w.results[:len(w.batch)]...)
	w.srv.acks <- it
}

// stage opens this attempt's redo staging on shard sh's log — inside the
// body, so a retry starts a fresh record; the commit event stamps the staged
// ops with the commit's wv — or fails fast on a dead log: committing state
// whose durability can never be promised would make memory diverge from
// disk.
func (w *worker) stage(sh int, site gstm.TxnID) error {
	l := w.srv.wals[sh]
	if l.Failed() {
		return errWALUnavailable
	}
	w.stgs[sh] = l.Stage(int(w.id), uint16(site))
	w.logging = true
	return nil
}

// runShard is the current batch's transaction body on shard sh.
func (w *worker) runShard(tx *gstm.Tx, sh int, idxs []int) error {
	w.logging = false
	if w.durable {
		if err := w.stage(sh, site(w.batch[0].req.Op)); err != nil {
			return err
		}
	}
	for _, i := range idxs {
		r := &w.batch[i].req
		w.results[i] = w.applyOp(tx, sh, r.Op, r.Key, r.Arg)
	}
	return nil
}

// runTxn is the current OpTxn's body: each participant's sub-ops, in
// request order, on that shard's sub-transaction. Sub-ops on different
// shards touch different keys, so running them shard by shard changes no
// result. Sub-op semantics are unconditional — a Get of an absent key reads
// 0, a Del of one is a no-op — so only the whole transaction has a status;
// its value is the last sub-op's, a sub-Put reporting its argument.
func (w *worker) runTxn(m *shard.MultiTx) error {
	ops := w.batch[0].txn.ops
	w.logging = false
	if w.durable {
		for _, sh := range m.Shards() {
			if err := w.stage(sh, siteTxn); err != nil {
				return err
			}
		}
	}
	for _, sh := range m.Shards() {
		tx := m.On(sh)
		w.deltas[sh] = 0
		for _, i := range w.plan.Group(sh) {
			op := &ops[i]
			r := w.applyOp(tx, sh, op.Op, op.Key, op.Arg)
			if op.Op == OpPut {
				r.value = op.Arg
			}
			if i == len(ops)-1 {
				w.results[0] = opResult{value: r.value}
			}
			w.deltas[sh] += r.delta
		}
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

// account books one committed shard sub-transaction of nops operations:
// its live-key change, the batch counters and the shard lifecycle's count.
func (s *Server) account(sh, nops int, delta int64) {
	if delta != 0 {
		s.liveKeys.Add(delta)
	}
	s.batches.Add(1)
	s.batchedOps.Add(uint64(nops))
	s.lcs[sh].noteOps(nops)
}

// applyOp performs one operation inside shard sh's sub-transaction,
// staging each mutation's redo image for the WAL when logging is on.
func (w *worker) applyOp(tx *gstm.Tx, sh int, op Op, key, arg uint64) opResult {
	st, k := w.srv.stores[sh], int64(key)
	switch op {
	case OpGet:
		v, ok := st.Get(tx, k)
		if !ok {
			return opResult{status: StatusNotFound}
		}
		return opResult{value: v}
	case OpPut:
		if st.Set(tx, k, arg) {
			w.stagePut(sh, key, arg)
			return opResult{value: 1}
		}
		st.InsertNoCount(tx, k, arg)
		w.stagePut(sh, key, arg)
		return opResult{value: 0, delta: 1}
	case OpAdd:
		if v, ok := st.Get(tx, k); ok {
			nv := uint64(int64(v) + int64(arg))
			st.Set(tx, k, nv)
			w.stagePut(sh, key, nv)
			return opResult{value: nv}
		}
		st.InsertNoCount(tx, k, arg)
		w.stagePut(sh, key, arg)
		return opResult{value: arg, delta: 1}
	default: // OpDel
		if !st.RemoveNoCount(tx, k) {
			return opResult{status: StatusNotFound}
		}
		if w.logging {
			w.stgs[sh].Del(key)
		}
		return opResult{delta: -1}
	}
}

func (w *worker) stagePut(sh int, key, val uint64) {
	if w.logging {
		w.stgs[sh].Put(key, val)
	}
}

// finishSpan closes shard sh's scratch span with the sub-transaction's
// terminal cause and hands it to the observatory (which copies it out).
func (w *worker) finishSpan(sh int, cause obs.Cause) {
	sp := &w.spans[sh]
	sp.Finish(cause, time.Now().UnixNano())
	w.srv.obs.Collect(int(w.id), sp)
}
