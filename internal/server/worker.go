package server

import (
	"errors"
	"slices"
	"sync"

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
	// siteTxn is the multi-key transaction site (OpTxn). The slot its
	// connection is homed on runs it as itself, staging redo on every
	// participant shard's log (see execTxn).
	siteTxn
)

// STM threads. Slot i runs everything it executes as gstm.ThreadID(i),
// 0 <= i < Workers, and owns stager slot i on every shard's WAL
// (wal.Config.Threads = Workers). Two more sit beyond the slots, each with
// its own observatory ring so their spans never land in a slot's:
//   - the scan thread runs the WAL's snapshot scans. It is outside the
//     stager range, so the log ignores its commit events.
//   - the watch thread runs every OpWatch/OpWaitKey long-poll, any number
//     of them parked at once: one stable TSA label instead of Workers noisy
//     ones.
func (s *Server) scanThread() gstm.ThreadID  { return gstm.ThreadID(s.cfg.Workers) }
func (s *Server) watchThread() gstm.ThreadID { return gstm.ThreadID(s.cfg.Workers + 1) }

// threads counts every STM thread: the slots and the two above them.
func (cfg Config) threads() int { return cfg.Workers + 2 }

func site(op Op) gstm.TxnID {
	switch op {
	case OpGet:
		return siteGet
	case OpPut:
		return sitePut
	case OpAdd:
		return siteAdd
	case OpTxn:
		return siteTxn
	default:
		return siteDel
	}
}

// task is one data request a reader has decoded and not yet answered. txn
// holds an OpTxn's sub-operations (nil otherwise), in its pending storage.
type task struct {
	req Request
	txn []TxnOp
}

// nkeys is how many keys t touches: an OpTxn's sub-ops, else one.
func (t *task) nkeys() int {
	if t.req.Op == OpTxn {
		return len(t.txn)
	}
	return 1
}

// pending is a connection reader's decoded, unanswered data requests: those
// of its open burst, in arrival order. The reader runs them on its home slot
// a chunk at a time — tasks[ran:], at most Batch — as they arrive
// (worker.run), and answers them all when the burst ends (Server.answer).
// The burst's replies go out together anyway, so its durability waits are
// taken together too, once its last chunk has run and the slot is free: one
// write(2) or fsync wait can cover every chunk. The reader owns one pending
// for the connection's life and reuses it, capacities kept.
type pending struct {
	tasks []task
	ops   []TxnOp // the sub-ops of the OpTxns; their tasks slice into it
	ran   int     // tasks[:ran] have run

	// ends are the chunk's segment ends (cut), keys the cutter's key set.
	ends []int
	keys keySet

	// results[i] is task i's outcome. waits are the committed
	// sub-transactions whose WAL records the reader must wait for before it
	// answers.
	results []opResult
	waits   []ackWait
}

// decode decodes one request payload. An OpTxn — the protocol's only
// variable-length request — keeps its sub-ops in pd's storage, since they
// must outlive the reader's reusable payload buffer until the transaction
// has run.
func (pd *pending) decode(p []byte) (Request, []TxnOp, error) {
	if Op(p[0]&^TraceBit) != OpTxn {
		req, err := DecodeRequest(p)
		return req, nil, err
	}
	n0 := len(pd.ops)
	req, ops, err := DecodeTxnRequest(p, pd.ops)
	pd.ops = ops
	return req, ops[n0:], err
}

// reset empties pd for the next burst, keeping every capacity.
func (pd *pending) reset() {
	pd.tasks, pd.ops, pd.ran, pd.waits = pd.tasks[:0], pd.ops[:0], 0, pd.waits[:0]
}

// cut splits the pending chunk, tasks[ran:], into segments, leaving each
// segment's end in ends: walking the chunk in arrival order, a task whose
// key, or any of its OpTxn sub-op keys, is already in the current segment
// starts the next one. So a segment's tasks touch pairwise-disjoint keys,
// and two tasks on one key always land in different segments, in arrival
// order (DESIGN.md "Batching rules"). A segment also ends before it would
// hold more than wal.MaxOps operations, so no batch outgrows a WAL record.
// The key set makes the cut linear in the chunk's keys.
func (pd *pending) cut() {
	chunk := pd.tasks[pd.ran:]
	n := 0
	for i := range chunk {
		n += chunk[i].nkeys()
	}
	pd.keys.reset(n)
	pd.ends = pd.ends[:0]
	segOps := 0
	for i := range chunk {
		t := &chunk[i]
		if segOps+t.nkeys() > wal.MaxOps || !pd.keys.add(t) {
			pd.ends = append(pd.ends, pd.ran+i)
			pd.keys.clear()
			pd.keys.add(t)
			segOps = 0
		}
		segOps += t.nkeys()
	}
	pd.ends = append(pd.ends, len(pd.tasks))
}

// keySet is the cutter's set of the current segment's keys: open addressing
// over a power-of-two table at most half full, each slot stamped with the
// segment generation it was filled in, so clearing the set for the next
// segment is one increment.
type keySet struct {
	slots []keySlot
	shift uint // 64 - log2(len(slots))
	gen   uint32
}

type keySlot struct {
	key uint64
	gen uint32
}

// reset sizes the set for up to n keys and empties it. The table only grows,
// so a warm reader's cut allocates nothing.
func (ks *keySet) reset(n int) {
	if len(ks.slots) < 2*n {
		size, shift := 16, uint(60)
		for size < 2*n {
			size, shift = size<<1, shift-1
		}
		ks.slots, ks.shift, ks.gen = make([]keySlot, size), shift, 0
	}
	ks.clear()
}

// clear empties the set.
func (ks *keySet) clear() {
	if ks.gen++; ks.gen == 0 { // wrapped: a stale stamp could read as current
		clear(ks.slots)
		ks.gen = 1
	}
}

// slot is key's slot: the one holding it, or the empty one it would fill.
// Fibonacci hashing spreads dense and strided keys alike.
func (ks *keySet) slot(key uint64) *keySlot {
	mask := uint64(len(ks.slots) - 1)
	for i := (key * 0x9e3779b97f4a7c15) >> ks.shift; ; i = (i + 1) & mask {
		if sl := &ks.slots[i]; sl.gen != ks.gen || sl.key == key {
			return sl
		}
	}
}

// add adds every key t touches and reports true, or reports false and adds
// nothing when one of them is in the set already. A transaction that
// repeats a key of its own does not collide with itself: its keys are all
// checked before any is added.
func (ks *keySet) add(t *task) bool {
	if t.req.Op != OpTxn {
		sl := ks.slot(t.req.Key)
		if sl.gen == ks.gen {
			return false
		}
		*sl = keySlot{t.req.Key, ks.gen}
		return true
	}
	for i := range t.txn {
		if ks.slot(t.txn[i].Key).gen == ks.gen {
			return false
		}
	}
	for i := range t.txn {
		*ks.slot(t.txn[i].Key) = keySlot{t.txn[i].Key, ks.gen}
	}
	return true
}

// ackWait is one committed sub-transaction's durability obligation: shard
// sh's record seq, and the nops operations it credits to the shard's
// lifecycle once acked. lo and hi bound its segment in the tasks and kind is
// its batch's, which together name the batch: a segment runs one batch per
// kind. A failed wait demotes the batch's operations homed on sh, or every
// transaction of an OpTxn batch. When spanned is set the sub-transaction's
// span rides along by value: the reader stamps its WAL-ack phase, finishes
// it and hands it to the observatory. A cross-shard transaction produces
// one wait per logged participant but carries its single span on only one
// of them.
type ackWait struct {
	sh      int
	seq     uint64
	nops    int
	lo, hi  int
	kind    Op
	span    obs.Span
	spanned bool
}

// opResult is one operation's outcome, filled inside the batch
// transaction body (and therefore overwritten wholesale when the body
// re-runs after a conflict).
type opResult struct {
	status Status
	value  uint64
}

// worker is STM thread slot w: every transaction run on it — batches and
// OpTxn multi-key transactions alike — runs as gstm.ThreadID(w) on whichever
// shards its keys route to, staging on WAL stager slot w and recording into
// observatory ring w. The slot has no goroutine of its own: a connection
// reader runs its chunk here under mu (run), so at most one transaction per
// slot is live and the engine, the model and telemetry see the same bounded
// thread set as a pool of Workers threads. A batch of single-key operations
// is scatter-gathered by home shard — one sub-transaction per shard, in
// ascending shard order — so a batch that happens to live on one shard runs
// exactly as the unsharded server ran it. A batch of OpTxns runs as one
// transaction across the union of their shards.
type worker struct {
	srv *Server
	id  gstm.ThreadID
	mu  sync.Mutex // held by the reader running a chunk on this slot

	// pend holds the chunk being run, enq/decNs its span stamps: when the
	// reader had it ready to run (unix nanos) and how long the server's own
	// work before that took, so each span reconstructs its decode and
	// queue-wait phases without another clock read. The current batch is
	// the tasks of kind kind in the segment pend.tasks[lo:hi]; idx lists
	// their indices in pend.tasks, ascending. subs are an OpTxn batch's
	// sub-ops, flattened in arrival order.
	pend       *pending
	enq, decNs int64
	lo, hi     int
	kind       Op
	idx        []int
	subs       []txnSub
	plan       *shard.Plan

	// body (runShard), multi (runTxn) and planOpt (the txOpts lookup)
	// depend only on the worker, so they are built once: each would
	// otherwise be a heap allocation per batch.
	body    func(tx *gstm.Tx, sh int, idxs []int) error
	multi   func(m *shard.MultiTx) error
	planOpt shard.PlanOption

	// spans[sh] is the scratch span for shard sh's sub-transaction of the
	// current batch; spanOpts[sh] is the prebuilt option slice threading it
	// into that shard's Run call behind a WithReadOnly that only Get
	// batches pass (see txOpts). Reused every batch: the observatory
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

// txnSub is one sub-op of an OpTxn batch: task is its transaction's index
// in the pending tasks, last marks the transaction's last sub-op, whose
// value the transaction answers.
type txnSub struct {
	op   TxnOp
	task int
	last bool
}

func newWorker(s *Server, id int) *worker {
	w := &worker{
		srv:   s,
		id:    gstm.ThreadID(id),
		plan:  s.router.NewPlan(),
		spans: make([]obs.Span, s.cfg.Shards),
		stgs:  make([]wal.Staging, s.cfg.Shards),
	}
	w.body = w.runShard
	w.multi = w.runTxn
	w.planOpt = shard.WithShardOptions(w.txOpts)
	w.spanOpts = make([][]gstm.TxOption, s.cfg.Shards)
	for sh := range w.spanOpts {
		w.spanOpts[sh] = []gstm.TxOption{gstm.WithReadOnly(), gstm.WithSpan(&w.spans[sh])}
	}
	return w
}

// txOpts is the current batch's Run options on shard sh: its span, on
// TL2's read-only fast path when the batch is Gets.
func (w *worker) txOpts(sh int) []gstm.TxOption {
	if w.kind == OpGet {
		return w.spanOpts[sh]
	}
	return w.spanOpts[sh][1:]
}

// run executes pd's pending chunk, pd.tasks[pd.ran:], on this slot. The
// reader cuts it into key-disjoint segments before it takes the slot
// (pending.cut); each segment then runs one batch per operation kind, in
// the order each kind first appears in it, all of its OpTxns together as
// one batch. Only the execution order moves: every batch writes its results
// in place, so the replies keep arrival order. A chunk holds at most Batch
// requests, which bounds a batch. enq and decNs are the chunk's span
// stamps. What the batches commit with a WAL record still to wait for is
// left in pd.waits for the reader, which waits after it lets go of the slot
// (Server.answer): a strict fsync never holds a slot.
func (w *worker) run(pd *pending, enq, decNs int64) {
	n := len(pd.tasks)
	pd.results = slices.Grow(pd.results[:pd.ran], n-pd.ran)[:n]
	pd.cut()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pend, w.enq, w.decNs = pd, enq, decNs
	w.lo = pd.ran
	for _, w.hi = range pd.ends {
		w.runSegment()
		w.lo = w.hi
	}
	pd.ran = n
	w.pend = nil
}

// runSegment runs the segment pend.tasks[lo:hi], one batch per kind. Its
// tasks touch pairwise-disjoint keys, so no order among them is observable:
// any order yields the same results and the same store.
func (w *worker) runSegment() {
	seg := w.pend.tasks[w.lo:w.hi]
	var seen uint16 // bit k: kind k has run
	for i := range seg {
		kind := seg[i].req.Op
		if seen&(1<<kind) != 0 {
			continue
		}
		seen |= 1 << kind
		w.kind, w.idx = kind, w.idx[:0]
		for j := i; j < len(seg); j++ {
			if seg[j].req.Op == kind {
				w.idx = append(w.idx, w.lo+j)
			}
		}
		if kind == OpTxn {
			w.execTxn()
		} else {
			w.execBatch()
		}
	}
}

// execBatch scatter-gathers the current batch by home shard, runs one
// transaction per touched shard, and fills every operation's result.
// Operations against disjoint keys are independent, so folding a shard's
// sub-batch into one atomic block changes neither their results nor the
// store's final state versus running them back to back — it only spends
// one commit (and one Tseq slot) for up to Batch operations. Shards commit
// independently: a cross-shard batch is not atomic as a whole, which is
// fine for the same reason — its operations never share a key.
func (w *worker) execBatch() {
	s, tasks := w.srv, w.pend.tasks
	w.plan.Build(len(w.idx), func(i int) uint64 { return tasks[w.idx[i]].req.Key })

	// Open one span per touched shard before running, from the first homed
	// task's stamps; the STM run appends gate/retry/commit events.
	deq := obs.Now()
	for _, sh := range w.plan.Active() {
		idxs := w.plan.Group(sh)
		forced := false
		for _, i := range idxs {
			if tasks[w.idx[i]].req.Trace {
				forced = true
				break
			}
		}
		w.openSpan(sh, &tasks[w.idx[idxs[0]]], len(idxs), forced, deq)
		if idxs[0] == 0 {
			w.checkGuidance(sh, deq) // the batch's lead homes here
		}
	}

	w.durable = s.wals != nil && w.kind != OpGet
	w.plan.Run(nil, w.id, site(w.kind), w.body, w.planOpt)

	act := w.plan.Active()
	for j, sh := range act {
		idxs := w.plan.Group(sh)
		st := StatusOK
		if err := w.plan.Err(sh); err != nil {
			st = w.fail(err, sh, act[j:j+1])
		} else if !w.settle(sh, len(idxs), true) {
			st = StatusUnavailable
		}
		if st != StatusOK {
			for _, i := range idxs {
				w.pend.results[w.idx[i]] = opResult{status: st}
			}
		}
	}
}

// execTxn runs the current batch — the segment's OpTxns — as a single
// transaction over every shard their sub-ops home to: Router.RunMulti
// commits all participants at one exchanged write version, or none
// (DESIGN.md "Cross-shard commit"). The transactions touch disjoint keys,
// so running them as one changes no result; it spends one commit, one
// clock exchange and one WAL record per participant on all of them. A
// failure fails every one. One span, opened on the first participant and
// led by the first transaction, covers the whole batch.
func (w *worker) execTxn() {
	s, tasks := w.srv, w.pend.tasks
	w.subs = w.subs[:0]
	w.durable = false
	forced := false
	for _, ti := range w.idx {
		t := &tasks[ti]
		forced = forced || t.req.Trace
		for j, op := range t.txn {
			w.subs = append(w.subs, txnSub{op: op, task: ti, last: j == len(t.txn)-1})
			if op.Op != OpGet {
				w.durable = s.wals != nil
			}
		}
	}
	w.plan.Build(len(w.subs), func(i int) uint64 { return w.subs[i].op.Key })
	parts := w.plan.Active()
	first := parts[0]
	deq := obs.Now()
	w.openSpan(first, &tasks[w.idx[0]], len(w.subs), forced, deq)
	w.checkGuidance(first, deq)
	st := StatusOK
	if err := s.router.RunMulti(nil, parts, w.id, siteTxn, w.multi, w.txOpts(first)...); err != nil {
		st = w.fail(err, first, parts)
	} else {
		for _, sh := range parts {
			if !w.settle(sh, len(w.plan.Group(sh)), sh == first) {
				st = StatusUnavailable // demoted whole
			}
		}
	}
	if st != StatusOK {
		for _, ti := range w.idx {
			w.pend.results[ti] = opResult{status: st}
		}
	}
}

// openSpan starts shard sh's scratch span for a (sub-)transaction of n
// operations led by task t: its decode and queue-wait phases are
// reconstructed from the chunk's stamps, deq being when the batch started.
// The queue-wait phase is the reader's wait for the slot plus the batches
// ahead of this one in the chunk.
func (w *worker) openSpan(sh int, t *task, n int, forced bool, deq int64) {
	sp := &w.spans[sh]
	begin := w.enq - w.decNs
	sp.Start(t.req.ID, uint8(t.req.Op), uint8(sh), uint8(w.id), n, forced, begin)
	sp.Add(obs.PhaseDecode, obs.CauseNone, 0, begin, w.decNs)
	sp.Add(obs.PhaseQueue, obs.CauseNone, 0, w.enq, deq-w.enq)
}

// checkGuidance is guidance on the serving path, in place of the gate at
// transaction start: one non-blocking check of the batch's lead pair (site,
// worker) against shard sh's newest state, sh being where the lead's span
// opens — an OpTxn's first participant. The batch runs whatever the answer;
// the decision is counted (pass, or escape when the model refused the lead)
// and lands on the span as a zero-length gate event at deq, an escape with
// the gate-timeout cause a gate's escape hatch carries. On an unguided shard
// it costs one atomic load (DESIGN.md "Dispatch").
func (w *worker) checkGuidance(sh int, deq int64) {
	o, ok := w.srv.router.System(sh).CheckDequeue(gstm.Pair{Txn: site(w.kind), Thread: w.id})
	if !ok {
		return
	}
	cause := obs.CauseNone
	if o == gstm.GateEscape {
		cause = obs.CauseGateTimeout
	}
	w.spans[sh].Add(obs.PhaseGate, cause, 1, deq, 0)
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
	case errors.Is(err, gstm.ErrCanceled):
		return StatusCanceled, obs.CauseCanceled
	default:
		// Not in the abort taxonomy (a body error, not an STM outcome);
		// spurious is the closest "not a modeled conflict" label.
		return StatusBadRequest, obs.CauseSpurious
	}
}

// settle books shard sh's committed sub-transaction of nops operations;
// spanned says sh's span belongs to it. With no WAL record to wait for it
// settles at once (Server.ackShard) and reports false when the log had
// already refused the record: the caller demotes the operations to
// StatusUnavailable. A logged sub-transaction becomes an obligation on the
// reader's pending requests instead, its span copied along, which the
// reader waits out once it has let go of the slot.
func (w *worker) settle(sh, nops int, spanned bool) bool {
	var seq uint64
	var err error
	if w.durable {
		seq, err = w.srv.wals[sh].ThreadSeq(int(w.id))
	}
	var sp *obs.Span
	if spanned {
		sp = &w.spans[sh]
	}
	if seq == 0 {
		return w.srv.ackShard(int(w.id), sh, 0, err, sp, nops)
	}
	wt := ackWait{sh: sh, seq: seq, nops: nops, lo: w.lo, hi: w.hi, kind: w.kind}
	if spanned {
		wt.span, wt.spanned = *sp, true
	}
	w.pend.waits = append(w.pend.waits, wt)
	return true
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
		if err := w.stage(sh, site(w.kind)); err != nil {
			return err
		}
	}
	for _, i := range idxs {
		ti := w.idx[i]
		r := &w.pend.tasks[ti].req
		w.pend.results[ti] = w.applyOp(tx, sh, r.Op, r.Key, r.Arg)
	}
	return nil
}

// runTxn is the current OpTxn batch's body: each participant's sub-ops, in
// request order, on that shard's sub-transaction. Sub-ops on different
// shards touch different keys, so running them shard by shard changes no
// result. Sub-op semantics are unconditional — a Get of an absent key reads
// 0, a Del of one is a no-op — so only a whole transaction has a status;
// its value is its last sub-op's, a sub-Put reporting its argument.
func (w *worker) runTxn(m *shard.MultiTx) error {
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
		for _, i := range w.plan.Group(sh) {
			sub := &w.subs[i]
			r := w.applyOp(tx, sh, sub.op.Op, sub.op.Key, sub.op.Arg)
			if sub.op.Op == OpPut {
				r.value = sub.op.Arg
			}
			if sub.last {
				w.pend.results[sub.task] = opResult{value: r.value}
			}
		}
	}
	return nil
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
		return opResult{value: 0}
	case OpAdd:
		if v, ok := st.Get(tx, k); ok {
			nv := uint64(int64(v) + int64(arg))
			st.Set(tx, k, nv)
			w.stagePut(sh, key, nv)
			return opResult{value: nv}
		}
		st.InsertNoCount(tx, k, arg)
		w.stagePut(sh, key, arg)
		return opResult{value: arg}
	default: // OpDel
		if !st.RemoveNoCount(tx, k) {
			return opResult{status: StatusNotFound}
		}
		if w.logging {
			w.stgs[sh].Del(key)
		}
		return opResult{}
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
	sp.Finish(cause, obs.Now())
	w.srv.obs.Collect(int(w.id), sp)
}
