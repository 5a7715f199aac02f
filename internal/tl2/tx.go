package tl2

import (
	"sync/atomic"
	"time"
	"unsafe"

	"gstm/internal/obs"
	"gstm/internal/txid"
	"gstm/internal/wset"
)

// rngSeq hands out distinct initial states for per-Tx yield generators.
var rngSeq atomic.Uint64

// tagSeq hands out nonzero ownership tags, one per pooled Tx object. A tag
// only ever marks locks the Tx itself holds, and every lock is released
// (owner cleared) before the Tx is pooled, so reuse across attempts is safe.
var tagSeq atomic.Uint64

// conflictSignal is panicked by transactional reads/writes (and returned by
// the commit protocol) when a conflict is detected. byWV is the write
// version of the commit that invalidated this transaction, or 0 when the
// invalidating commit could not be identified (e.g. the location stayed
// locked past the spin bound). cause classifies the conflict for the abort
// taxonomy.
type conflictSignal struct {
	byWV  uint64
	cause obs.Cause
}

// Tx is a single attempt of a transaction. A Tx is only valid inside the
// function passed to Runtime.Atomic and must not escape it or be shared
// across goroutines.
type Tx struct {
	rt       *Runtime
	self     txid.Pair
	rv       uint64
	tag      uint64 // nonzero ownership tag stamped into lock-slot owners while locking
	reads    []*base
	ws       wset.Set[*base] // redo log: sorted small-vector write set with lock bookkeeping
	attempt  int
	rng      uint64
	ops      int
	readOnly bool

	// trackReads records read bases into tx.reads. True for every
	// read-write transaction (commit-time validation needs the read set)
	// and, independently of readOnly, for blockable transactions: a park
	// registers waiters on exactly the bases the attempt read, so the
	// blocking mode of a Run call forces read tracking even on the
	// read-only fast path.
	trackReads bool

	// parkW is the reusable wakeup record for blocking parks (waiters.go).
	parkW parkWaiter

	// Striped-mode lock bookkeeping: every stripeRef in stripes is a
	// stripe lock this attempt currently holds (appended only after a
	// successful CAS); stripePlan is the reusable scratch list of stripes
	// the commit still needs, kept sorted by slot address for the
	// deterministic acquisition order striping takes away from the
	// write set's address sort. Both retain capacity across attempts (the
	// per-Tx arena pattern), so steady-state striped commits allocate
	// nothing for lock bookkeeping. Unused (always empty) in per-location
	// mode, where the write-set entries carry Pre/Locked instead.
	stripes    []stripeRef
	stripePlan []*lockSlot

	// Latency-sampling state: when measure is set (1 in telemetry.SampleEvery
	// commits per shard) the commit protocol times its read-set validation
	// phase into valDur; validated records whether validation ran at all.
	measure   bool
	valDur    time.Duration
	validated bool

	// span, when non-nil, receives the commit protocol's phase timeline
	// (lock / validate / publish). It is owned by the caller of Run and all
	// Span methods are nil-safe, so the untraced path stays branch-cheap.
	span *obs.Span

	// group is the participant list of a run this Tx leads: itself first
	// (set at construction, never overwritten), then, cross-shard, one
	// pooled Tx of every other participant. It keeps its capacity across
	// pooling, so building it allocates nothing in steady state.
	group []*Tx
}

// errWriteInReadOnly reports a Write inside a read-only transaction.
type errWriteInReadOnly struct{}

func (errWriteInReadOnly) Error() string {
	return "tl2: Write inside a read-only transaction"
}

// reset starts attempt number attempt of self on tx.rt, sampling rv, and
// reports whether this attempt samples its commit latency. track keeps the
// read set even on the read-only path (blocking parks and cross-shard
// prepare both need it); span receives the commit's phases.
func (tx *Tx) reset(self txid.Pair, attempt int, readOnly, track bool, span *obs.Span) bool {
	tx.self = self
	tx.readOnly = readOnly
	tx.trackReads = !readOnly || track
	tx.rv = tx.rt.clk().now()
	tx.reads = tx.reads[:0]
	tx.ws.Reset()
	tx.stripes = tx.stripes[:0]
	tx.stripePlan = tx.stripePlan[:0]
	tx.attempt = attempt
	tx.measure = tx.rt.tel.TxStart(uint64(self.Thread))
	tx.valDur = 0
	tx.validated = false
	tx.span = span
	if tx.tag == 0 {
		tx.tag = tagSeq.Add(1)
	}
	// The yield generator is seeded once per Tx object and then evolves
	// across transactions and attempts. Re-seeding per attempt would make
	// the yield pattern a pure function of (pair, attempt): short
	// transactions would then either always or never yield at the same
	// operation, and on a single core "never" means transactions stop
	// overlapping entirely.
	if tx.rng == 0 {
		tx.rng = rngSeq.Add(0x9e3779b97f4a7c15) | 1
	}
	tx.ops = 0
	return tx.measure
}

// Self returns the (transaction, thread) pair of this attempt.
func (tx *Tx) Self() txid.Pair { return tx.self }

// Attempt returns the zero-based retry count of this attempt.
func (tx *Tx) Attempt() int { return tx.attempt }

// maybeYield implements the Interleave knob: on the single-core test
// machine, transactions would otherwise frequently run to completion
// between preemptions and never conflict, so every STM operation has a
// 1/Interleave chance of yielding the processor mid-transaction. This
// substitutes for the paper's true multi-core interleaving (see DESIGN.md).
func (tx *Tx) maybeYield() {
	n := tx.rt.cfg.Interleave
	if n <= 0 {
		return
	}
	tx.ops++
	tx.rng ^= tx.rng << 13
	tx.rng ^= tx.rng >> 7
	tx.rng ^= tx.rng << 17
	if tx.rng%uint64(n) == 0 {
		spinYield()
	}
}

func (tx *Tx) conflict(byWV uint64, cause obs.Cause) {
	panic(&conflictSignal{byWV: byWV, cause: cause})
}

// baseAddr is the write-set key of b: its address, which is also the
// deterministic commit-time lock ordering key (and, under striping, the
// stripe hash input).
func baseAddr(b *base) uintptr { return uintptr(unsafe.Pointer(b)) }

// slotAddr is the striped-mode lock acquisition ordering key.
func slotAddr(lk *lockSlot) uintptr { return uintptr(unsafe.Pointer(lk)) }

// readBase performs the TL2 post-validated read protocol on b and returns
// the consistent value snapshot as a raw pointer (a *T the generic Read
// dereferences — no interface hop, no closure). It panics with a
// conflictSignal when the location's version exceeds rv or the location
// stays locked.
func (tx *Tx) readBase(b *base) unsafe.Pointer {
	tx.maybeYield()
	// Read-after-write fast path: the filter answers the common miss in
	// O(1) (read-only transactions keep it at zero, so this is one branch),
	// and a hit returns the private redo box without allocating.
	if e, fp := tx.ws.Lookup(baseAddr(b)); e != nil {
		return e.Val
	} else if fp {
		tx.rt.tel.FilterFalsePositives.Inc(uint64(tx.self.Thread))
	}
	lk := tx.rt.lockFor(b)
	for spins := 0; ; spins++ {
		w1 := lk.word.Load()
		if wordLocked(w1) {
			// Under striping an eager writer can hold the stripe of a
			// location it never wrote (an alias of something it did write);
			// the RAW lookup above cannot catch that, so check ownership
			// here. Holding the stripe freezes its word and excludes
			// publishers, so the snapshot is consistent against the
			// pre-lock version, which eager acquisition validated ≤ rv.
			if pre, mine := tx.ownedPre(lk, b); mine {
				if v := wordVersion(pre); v > tx.rv {
					tx.conflict(v, obs.CauseReadValidation)
				}
				p := b.loadPtr()
				if tx.trackReads {
					tx.reads = append(tx.reads, b)
				}
				return p
			}
			if spins < tx.rt.cfg.MaxReadSpin {
				spinYield()
				continue
			}
			// The lock holder is mid-commit and will bump the version past
			// rv the moment it finishes; treat it as the invalidator but
			// its wv is not yet knowable.
			tx.conflict(0, obs.CauseLockBusy)
		}
		p := b.loadPtr()
		w2 := lk.word.Load()
		if w1 != w2 {
			// Raced with a commit; re-run the protocol.
			continue
		}
		if v := wordVersion(w1); v > tx.rv {
			tx.conflict(v, obs.CauseReadValidation)
		}
		// TL2's read-only fast path: reads are fully validated here
		// against rv, and a read-only commit performs no further
		// validation, so the read set need not be recorded at all —
		// unless the call is blockable, in which case a park needs to
		// know what was read.
		if tx.trackReads {
			tx.reads = append(tx.reads, b)
		}
		return p
	}
}

// Read returns the value of v inside the transaction, observing the
// transaction's own buffered writes first. The unboxed hot path: one
// pointer returned by the read protocol, one typed dereference.
func Read[T any](tx *Tx, v *Var[T]) T {
	return *(*T)(tx.readBase(&v.b))
}

// box copies val to a fresh heap box. Kept out of Write so that escape
// analysis only allocates on the paths that call it: the buffered-write
// fast path updates an existing box in place and must stay allocation-free.
func box[T any](val T) *T {
	v := val
	return &v
}

// Write buffers val as the transaction's pending write to v. The write
// becomes visible to other transactions only if this attempt commits.
// Under eager detection (Config.EagerWriteLock) the location's versioned
// lock is acquired here, at encounter time.
//
// A rewrite of an already-buffered location updates the redo box in place
// through the raw entry pointer (the box is private until commit publishes
// it), so the buffered-write fast path performs no allocation and no
// interface conversion; only the first write to a location allocates the
// box that commit will publish.
func Write[T any](tx *Tx, v *Var[T], val T) {
	if tx.readOnly {
		panic(errWriteInReadOnly{})
	}
	tx.maybeYield()
	b := &v.b
	addr := baseAddr(b)
	if e, fp := tx.ws.Lookup(addr); e != nil {
		// The entry keyed by b was inserted by a Write through the same
		// Var[T] (the base is embedded in it), so the redo box is a *T.
		*(*T)(e.Val) = val
		return
	} else if fp {
		tx.rt.tel.FilterFalsePositives.Inc(uint64(tx.self.Thread))
	}
	e, spilled := tx.ws.Insert(b, addr)
	e.Val = unsafe.Pointer(box(val))
	if spilled {
		tx.rt.tel.WriteSetSpills.Inc(uint64(tx.self.Thread))
	}
	if tx.rt.cfg.EagerWriteLock {
		tx.lockEager(e, b)
	}
}

// lockEager acquires b's versioned lock at encounter time with bounded
// spinning, validating the version against rv (a newer version means a
// conflicting commit already happened). In per-location mode the lock
// bookkeeping is recorded in b's write-set entry e; in striped mode it goes
// to the transaction's stripe list, and a stripe already held (an aliased
// second write) is counted and reused rather than re-acquired.
func (tx *Tx) lockEager(e *wset.Entry[*base], b *base) {
	lk := tx.rt.lockFor(b)
	striped := tx.rt.stripes != nil
	if striped && lk.owner.Load() == tx.tag {
		// Two written locations share this stripe; one lock covers both.
		tx.rt.tel.StripeCollisions.Inc(uint64(tx.self.Thread))
		return
	}
	for spins := 0; ; spins++ {
		w := lk.word.Load()
		if wordLocked(w) {
			if spins >= tx.rt.cfg.MaxLockSpin {
				tx.conflict(0, obs.CauseLockBusy)
			}
			spinYield()
			continue
		}
		if v := wordVersion(w); v > tx.rv {
			tx.conflict(v, obs.CauseReadValidation)
		}
		if lk.word.CompareAndSwap(w, w|lockedBit) {
			lk.owner.Store(tx.tag)
			if striped {
				tx.stripes = append(tx.stripes, stripeRef{lk: lk, pre: w})
			} else {
				e.Pre = w
				e.Locked = true
			}
			return
		}
	}
}

// ReadAt is shorthand for Read on an Array element.
func ReadAt[T any](tx *Tx, a *Array[T], i int) T { return Read(tx, a.At(i)) }

// WriteAt is shorthand for Write on an Array element.
func WriteAt[T any](tx *Tx, a *Array[T], i int, val T) { Write(tx, a.At(i), val) }

// lockWriteSet acquires the versioned lock of every written location with
// bounded spinning. It reports failure (and releases everything acquired)
// when some lock cannot be taken, the TL2 deadlock-avoidance rule.
//
// In per-location mode locks are acquired in ascending location address
// order (the write set is sorted), so any two transactions acquire the
// locks they share in the same global order: the random-map-iteration
// livelock window — two commits each holding a lock the other spins on,
// both aborting, retrying, and colliding again in a new random order —
// cannot occur. In striped mode the stripe hash destroys that ordering, so
// the needed stripes are first deduplicated (counting aliases) and sorted
// by slot address to restore a global acquisition order.
func (tx *Tx) lockWriteSet() bool {
	if tx.rt.stripes != nil {
		return tx.lockStripedWriteSet()
	}
	ents := tx.ws.Entries()
	for i := range ents {
		e := &ents[i]
		if e.Locked {
			continue // already taken at encounter time (eager mode)
		}
		b := e.Key
		lk := &b.lk
		acquired := false
		for spins := 0; spins <= tx.rt.cfg.MaxLockSpin; spins++ {
			w := lk.word.Load()
			if wordLocked(w) {
				spinYield()
				continue
			}
			if lk.word.CompareAndSwap(w, w|lockedBit) {
				lk.owner.Store(tx.tag)
				e.Pre = w
				e.Locked = true
				acquired = true
				break
			}
		}
		if !acquired {
			tx.releaseLocks(0)
			return false
		}
	}
	return true
}

// lockStripedWriteSet is the striped-mode commit lock phase: map every
// write-set entry to its stripe, drop duplicates (two entries on one
// stripe — the aliasing telemetry), skip stripes already taken at
// encounter time, sort the remainder by slot address for a deterministic
// global acquisition order, then acquire each with bounded spinning.
func (tx *Tx) lockStripedWriteSet() bool {
	t := tx.rt.stripes
	ents := tx.ws.Entries()
	tx.stripePlan = tx.stripePlan[:0]
plan:
	for i := range ents {
		lk := t.of(ents[i].Addr())
		for j := range tx.stripes {
			if tx.stripes[j].lk == lk {
				// Held since encounter time (eager) — an alias only if a
				// previous *entry* mapped here, which eager counting
				// already recorded; nothing to plan either way.
				continue plan
			}
		}
		for j := range tx.stripePlan {
			if tx.stripePlan[j] == lk {
				tx.rt.tel.StripeCollisions.Inc(uint64(tx.self.Thread))
				continue plan
			}
		}
		tx.stripePlan = append(tx.stripePlan, lk)
	}
	// Insertion sort by slot address: write sets are small (InlineSize 8
	// before spilling) and sort.Slice's reflection would allocate on every
	// striped commit.
	for i := 1; i < len(tx.stripePlan); i++ {
		for j := i; j > 0 && slotAddr(tx.stripePlan[j]) < slotAddr(tx.stripePlan[j-1]); j-- {
			tx.stripePlan[j], tx.stripePlan[j-1] = tx.stripePlan[j-1], tx.stripePlan[j]
		}
	}
	for _, lk := range tx.stripePlan {
		acquired := false
		for spins := 0; spins <= tx.rt.cfg.MaxLockSpin; spins++ {
			w := lk.word.Load()
			if wordLocked(w) {
				spinYield()
				continue
			}
			if lk.word.CompareAndSwap(w, w|lockedBit) {
				lk.owner.Store(tx.tag)
				tx.stripes = append(tx.stripes, stripeRef{lk: lk, pre: w})
				acquired = true
				break
			}
		}
		if !acquired {
			tx.releaseLocks(0)
			return false
		}
	}
	return true
}

// releaseLocks restores every acquired lock word. When wv is zero the
// pre-lock words are restored (abort path); otherwise each location is
// published at version wv (commit path). The owner tag is cleared before
// the unlocking store so no later lock holder's tag is ever clobbered.
func (tx *Tx) releaseLocks(wv uint64) {
	if tx.rt != nil && tx.rt.stripes != nil {
		for i := range tx.stripes {
			r := &tx.stripes[i]
			r.lk.owner.Store(0)
			if wv == 0 {
				r.lk.word.Store(r.pre)
			} else {
				r.lk.word.Store(makeWord(wv, false))
			}
		}
		tx.stripes = tx.stripes[:0]
		return
	}
	ents := tx.ws.Entries()
	for i := range ents {
		e := &ents[i]
		if !e.Locked {
			continue
		}
		lk := &e.Key.lk
		lk.owner.Store(0)
		if wv == 0 {
			lk.word.Store(e.Pre)
		} else {
			lk.word.Store(makeWord(wv, false))
		}
		e.Locked = false
	}
}

// scrub clears the attempt's read/write bookkeeping so a Tx abandoned on a
// user panic can be pooled without retaining the dead attempt's sets.
// Releasing any held locks is the caller's job (releaseLocks).
func (tx *Tx) scrub() {
	tx.reads = tx.reads[:0]
	tx.ws.Reset()
	tx.stripes = tx.stripes[:0]
	tx.stripePlan = tx.stripePlan[:0]
}

// ownedPre returns the pre-lock word of lk (the slot guarding b) if this
// transaction holds its lock. The ownership test is one atomic load of the
// slot's owner tag — O(1), replacing the linear lock-list scan that made
// read-set validation O(reads×locks) — and only a positive answer (rare: a
// location both read and written by this transaction, or an alias of one
// under striping) pays the lookup for the pre-lock word.
func (tx *Tx) ownedPre(lk *lockSlot, b *base) (uint64, bool) {
	if lk.owner.Load() != tx.tag {
		return 0, false
	}
	if tx.rt.stripes != nil {
		for i := range tx.stripes {
			if tx.stripes[i].lk == lk {
				return tx.stripes[i].pre, true
			}
		}
		return 0, false
	}
	e, _ := tx.ws.Lookup(baseAddr(b))
	if e == nil || !e.Locked {
		return 0, false
	}
	return e.Pre, true
}

// validateReads re-validates the attempt's full read set against rv: a
// location locked by someone else or carrying a version newer than rv
// fails. Unlike the inline validation in commit it never elides on clock
// evidence — the cross-shard prepare path calls it after every
// participant's locks are down, and a sibling participant's clock tells
// this shard nothing. The caller owns lock release on failure.
func (tx *Tx) validateReads() (byWV uint64, cause obs.Cause, ok bool) {
	for _, b := range tx.reads {
		lk := tx.rt.lockFor(b)
		w := lk.word.Load()
		if wordLocked(w) {
			pre, mine := tx.ownedPre(lk, b)
			if !mine {
				return 0, obs.CauseLockBusy, false
			}
			w = pre
		}
		if v := wordVersion(w); v > tx.rv {
			return v, obs.CauseReadValidation, false
		}
	}
	return 0, obs.CauseNone, true
}

// publishAt is the back half of the prepared-commit split: it publishes
// the write set at the caller-chosen write version wv, records the
// attribution, releases every lock at wv and wakes parked readers. The
// caller must hold the write-set locks (lockWriteSet succeeded), have
// validated the read set, and have advanced this runtime's clock to at
// least wv — locations must never carry versions the clock has not
// reached, or readers under this clock would spin on the future.
func (tx *Tx) publishAt(wv uint64) {
	ents := tx.ws.Entries()
	for i := range ents {
		ents[i].Key.storePtr(ents[i].Val)
	}
	tx.rt.reg.Record(wv, tx.self)
	tx.releaseLocks(wv)
	for i := range ents {
		if b := ents[i].Key; b.wtrs.Load() != nil {
			b.wakeWaiters()
		}
	}
}

// commit runs the TL2 commit protocol. On success it returns the commit's
// write version. On conflict it returns the invalidating write version (0
// when unknown), the taxonomy cause, and ok=false; all locks are released
// and no writes are published. When tx.span is set, the lock / validate /
// publish phases are recorded into its timeline.
//
// traced selects the clock discipline. With a sink installed (traced), every
// commit — including read-only ones — draws a unique tick so the tracing
// layer can totally order the transaction sequence by wv. Untraced, the
// commit path sheds global-clock cacheline traffic two ways: read-only
// commits skip the tick entirely (no location version advances and nobody
// consumes the sequence number), and write commits draw wv through the GV4
// pass-on-failure clock (see tickGV4), so a failed clock CAS is never
// retried.
func (tx *Tx) commit(traced bool) (wv uint64, byWV uint64, cause obs.Cause, ok bool) {
	if tx.ws.Len() == 0 {
		// Reads were validated against rv at access time; nothing to do.
		if traced {
			return tx.rt.clk().tick(), 0, obs.CauseNone, true
		}
		return tx.rv, 0, obs.CauseNone, true
	}
	att := tx.attempt + 1
	spanned := tx.span != nil
	// The traced commit shares one clock read per phase boundary (lock end
	// doubles as validate start, validate end as publish start), so a fully
	// validated commit costs four time.Now calls, not per-phase pairs.
	var lockStart, mark time.Time
	if spanned {
		lockStart = time.Now()
	}
	if !tx.lockWriteSet() {
		tx.span.AddSince(obs.PhaseLock, obs.CauseLockBusy, att, lockStart)
		return 0, 0, obs.CauseLockBusy, false
	}
	if spanned {
		mark = time.Now()
		tx.span.Add(obs.PhaseLock, obs.CauseNone, att, lockStart.UnixNano(), mark.Sub(lockStart).Nanoseconds())
	}
	if fi := tx.rt.injector(); fi != nil {
		// Fault point: hold the write-set locks longer, widening the
		// mid-commit window other transactions see as locked words.
		for i, n := 0, fi.CommitDelay(tx.self, tx.attempt); i < n; i++ {
			spinYield()
		}
		if spanned {
			mark = time.Now() // the injected hold is not a validate cost
		}
	}
	needValidate := true
	adopted := false
	if traced {
		wv = tx.rt.clk().tick()
		needValidate = wv != tx.rv+1
	} else {
		wv, needValidate, adopted = tx.rt.clk().tickGV4(tx.rv)
		if adopted {
			tx.rt.tel.ClockCASFallbacks.Inc(uint64(tx.self.Thread))
		}
	}
	if needValidate {
		// Something committed since we sampled rv: validate the read set.
		// A failure after a GV4 adoption is classified clock-cas — the
		// adopted (reused) tick forced a validation the unique-tick path
		// might have skipped.
		valCause := obs.CauseReadValidation
		if adopted {
			valCause = obs.CauseClockCAS
		}
		var vt0 time.Time
		if spanned {
			vt0 = mark
		} else if tx.measure {
			vt0 = time.Now()
		}
		for _, b := range tx.reads {
			lk := tx.rt.lockFor(b)
			w := lk.word.Load()
			if wordLocked(w) {
				pre, mine := tx.ownedPre(lk, b)
				if !mine {
					tx.releaseLocks(0)
					tx.span.AddSince(obs.PhaseValidate, obs.CauseLockBusy, att, vt0)
					return 0, 0, obs.CauseLockBusy, false
				}
				w = pre
			}
			if v := wordVersion(w); v > tx.rv {
				tx.releaseLocks(0)
				tx.span.AddSince(obs.PhaseValidate, valCause, att, vt0)
				return 0, v, valCause, false
			}
		}
		if tx.measure || spanned {
			end := time.Now()
			if tx.measure {
				tx.valDur = end.Sub(vt0)
				tx.validated = true
			}
			if spanned {
				tx.span.Add(obs.PhaseValidate, obs.CauseNone, att, vt0.UnixNano(), end.Sub(vt0).Nanoseconds())
				mark = end
			}
		}
	}
	ents := tx.ws.Entries()
	for i := range ents {
		// Publish the redo box: one raw pointer store per location, the
		// unboxed replacement for the old per-location apply closure call.
		ents[i].Key.storePtr(ents[i].Val)
	}
	// Publish attribution before the new version becomes observable.
	tx.rt.reg.Record(wv, tx.self)
	tx.releaseLocks(wv)
	if spanned {
		tx.span.AddSinceNs(obs.PhasePublish, obs.CauseNone, att, mark.UnixNano())
	}
	// Wake transactions parked on any written location (waiters.go). The
	// versions published above are already observable, so a parker that
	// registers after the detach below re-validates against them and never
	// sleeps through this commit. On the non-blocking fast path this is one
	// atomic nil-load per written location and nothing else.
	for i := range ents {
		if b := ents[i].Key; b.wtrs.Load() != nil {
			b.wakeWaiters()
		}
	}
	return wv, 0, obs.CauseNone, true
}
