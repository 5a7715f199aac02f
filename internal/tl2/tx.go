package tl2

import (
	"sync/atomic"
	"unsafe"

	"gstm/internal/obs"
	"gstm/internal/telemetry"
	"gstm/internal/txid"
	"gstm/internal/wset"
	"gstm/internal/yield"
)

// tagSeq hands out nonzero ownership tags, one per pooled Tx object. A tag
// only ever marks locks the Tx itself holds (a locked word is
// lockedBy(tag)), and every lock is released before the Tx is pooled, so
// reuse across attempts is safe.
var tagSeq atomic.Uint64

// conflictSignal is panicked by transactional reads/writes when a conflict
// is detected. byWV is the write version of the commit that invalidated
// this transaction, or 0 when the invalidating commit could not be
// identified (e.g. the location stayed locked past the spin bound); by is
// the runtime whose location carried it, the one whose clock issued byWV.
// cause classifies the conflict for the abort taxonomy.
type conflictSignal struct {
	byWV  uint64
	by    *Runtime
	cause obs.Cause
}

// Tx is a single attempt of a transaction. A Tx is only valid inside the
// function passed to Runtime.Atomic and must not escape it or be shared
// across goroutines.
type Tx struct {
	rt       *Runtime
	self     txid.Pair
	rv       uint64
	tag      uint64 // nonzero ownership tag the lock CAS writes into each word it locks
	reads    []*base
	ws       wset.Set[*base] // redo log: sorted small-vector write set with lock bookkeeping
	attempt  int
	op       yield.Op // the Interleave roll at each read and write
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

	// Latency-sampling state: when measure is set (1 in telemetry.SampleEvery
	// commits per shard) the commit protocol times its read-set validation
	// phase into valNs; validated records whether validation ran at all.
	measure   bool
	valNs     uint64
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
	tx.attempt = attempt
	tx.measure = tx.rt.tel.TxStart(uint64(self.Thread))
	tx.valNs = 0
	tx.validated = false
	tx.span = span
	if tx.tag == 0 {
		tx.tag = tagSeq.Add(1)
	}
	return tx.measure
}

// Self returns the (transaction, thread) pair of this attempt.
func (tx *Tx) Self() txid.Pair { return tx.self }

// Attempt returns the zero-based retry count of this attempt.
func (tx *Tx) Attempt() int { return tx.attempt }

func (tx *Tx) conflict(byWV uint64, cause obs.Cause) {
	panic(&conflictSignal{byWV: byWV, by: tx.rt, cause: cause})
}

// baseAddr is the write-set key of b: its address, which is also the
// deterministic commit-time lock ordering key.
func baseAddr(b *base) uintptr { return uintptr(unsafe.Pointer(b)) }

// readBase performs the TL2 post-validated read protocol on b and returns
// the consistent value snapshot as a raw pointer (a *T the generic Read
// dereferences — no interface hop, no closure). It panics with a
// conflictSignal when the location's version exceeds rv or the location
// stays locked.
func (tx *Tx) readBase(b *base) unsafe.Pointer {
	tx.op.Yield(tx.rt.cfg.Interleave)
	// Read-after-write fast path: the filter answers the common miss in
	// O(1) (read-only transactions keep it at zero, so this is one branch),
	// and a hit returns the private redo box without allocating.
	if e, fp := tx.ws.Lookup(baseAddr(b)); e != nil {
		return e.Val
	} else if fp {
		tx.rt.tel.Inc(telemetry.FilterFalsePositives, uint64(tx.self.Thread))
	}
	// Locks are only taken at commit, after the body, so a locked word
	// here is always another transaction's.
	for spins := 0; ; spins++ {
		w1 := b.word.Load()
		if wordLocked(w1) {
			if spins < maxReadSpin {
				yield.Spin()
				continue
			}
			// The lock holder is mid-commit and will bump the version past
			// rv the moment it finishes; treat it as the invalidator but
			// its wv is not yet knowable.
			tx.conflict(0, obs.CauseLockBusy)
		}
		p := b.loadPtr()
		w2 := b.word.Load()
		if w1 != w2 {
			// Raced with a commit (or a parker's mark); re-run the protocol.
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
// becomes visible to other transactions only if this attempt commits; its
// versioned lock is taken at commit time.
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
	tx.op.Yield(tx.rt.cfg.Interleave)
	b := &v.b
	addr := baseAddr(b)
	if e, fp := tx.ws.Lookup(addr); e != nil {
		// The entry keyed by b was inserted by a Write through the same
		// Var[T] (the base is embedded in it), so the redo box is a *T.
		*(*T)(e.Val) = val
		return
	} else if fp {
		tx.rt.tel.Inc(telemetry.FilterFalsePositives, uint64(tx.self.Thread))
	}
	e, spilled := tx.ws.Insert(b, addr)
	e.Val = unsafe.Pointer(box(val))
	if spilled {
		tx.rt.tel.Inc(telemetry.WriteSetSpills, uint64(tx.self.Thread))
	}
}

// ReadAt is shorthand for Read on an Array element.
func ReadAt[T any](tx *Tx, a *Array[T], i int) T { return Read(tx, a.At(i)) }

// WriteAt is shorthand for Write on an Array element.
func WriteAt[T any](tx *Tx, a *Array[T], i int, val T) { Write(tx, a.At(i), val) }

// lockWriteSet acquires the versioned lock of every written location with
// bounded spinning: one CAS from the unlocked word, kept in the entry's Pre,
// to lockedBy(tx.tag), so the word itself names the holder from the instant
// it is locked. It reports failure (and releases everything acquired)
// when some lock cannot be taken, the TL2 deadlock-avoidance rule.
//
// Locks are acquired in ascending location address order (the write set is
// sorted), so any two transactions acquire the locks they share in the same
// global order: the random-map-iteration livelock window — two commits each
// holding a lock the other spins on, both aborting, retrying, and colliding
// again in a new random order — cannot occur.
func (tx *Tx) lockWriteSet() bool {
	ents := tx.ws.Entries()
	for i := range ents {
		e := &ents[i]
		word := &e.Key.word
		acquired := false
		for spins := 0; spins <= maxLockSpin; spins++ {
			w := word.Load()
			if wordLocked(w) {
				yield.Spin()
				continue
			}
			if word.CompareAndSwap(w, lockedBy(tx.tag)) {
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

// releaseLocks restores every acquired lock word. When wv is zero the
// pre-lock words are restored (abort path), waiter mark included;
// otherwise each location is published at version wv (commit path), which
// clears the mark — publishAt then wakes what was marked.
func (tx *Tx) releaseLocks(wv uint64) {
	ents := tx.ws.Entries()
	for i := range ents {
		e := &ents[i]
		if !e.Locked {
			continue
		}
		if wv == 0 {
			e.Key.word.Store(e.Pre)
		} else {
			e.Key.word.Store(makeWord(wv))
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
}

// ownedPre returns the pre-lock word of b if this transaction holds its
// lock: a location it both read and wrote, met again by commit-time read-set
// validation as the locked word w. The ownership test is one compare of w
// against this transaction's locked word — O(1), replacing the linear
// lock-list scan that made validation O(reads×locks) — and only a positive
// answer pays the write-set lookup.
func (tx *Tx) ownedPre(b *base, w uint64) (uint64, bool) {
	if w != lockedBy(tx.tag) {
		return 0, false
	}
	e, _ := tx.ws.Lookup(baseAddr(b))
	if e == nil || !e.Locked {
		return 0, false
	}
	return e.Pre, true
}

// validateReads re-validates the attempt's full read set against rv while
// the write-set locks are held: a location locked by someone else (cause
// lock-busy) or carrying a version newer than rv (cause read-validation,
// with that version as byWV) fails. commit calls it only when the clock
// shows another commit since rv; the cross-shard prepare always does, since
// a sibling participant's clock tells this shard nothing. The caller owns
// lock release on failure.
func (tx *Tx) validateReads() (byWV uint64, cause obs.Cause, ok bool) {
	for _, b := range tx.reads {
		w := b.word.Load()
		if wordLocked(w) {
			pre, mine := tx.ownedPre(b, w)
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

// publishAt is the back half of every commit: it publishes the write set
// at write version wv — one raw pointer store per location, the redo box —
// releases every lock at wv, and then wakes the transactions parked on any
// written location (waiters.go): exactly those whose pre-lock word carried
// waitBit. The release already published the new versions and cleared the
// marks, so a parker that registers after the drain finds a version above
// its rv, or marks the word afresh for the next commit, and never sleeps
// through this one; without parkers the wake step is one register test per
// written location. The caller must hold the write-set locks (lockWriteSet
// succeeded), have validated the read set, and have advanced this runtime's
// clock to at least wv — locations must never carry versions the clock has
// not reached, or readers under this clock would spin on the future.
func (tx *Tx) publishAt(wv uint64) {
	ents := tx.ws.Entries()
	for i := range ents {
		ents[i].Key.storePtr(ents[i].Val)
	}
	tx.releaseLocks(wv)
	for i := range ents {
		if ents[i].Pre&waitBit != 0 {
			wakeWaiters(ents[i].Key)
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
	// The traced commit shares one span clock read per phase boundary (lock
	// end doubles as validate start, validate end as publish start), so a
	// fully validated commit costs four obs.Now calls, not per-phase pairs.
	var lockStart, mark int64
	if spanned {
		lockStart = obs.Now()
	}
	if !tx.lockWriteSet() {
		tx.span.AddSince(obs.PhaseLock, obs.CauseLockBusy, att, lockStart)
		return 0, 0, obs.CauseLockBusy, false
	}
	if spanned {
		mark = obs.Now()
		tx.span.Add(obs.PhaseLock, obs.CauseNone, att, lockStart, mark-lockStart)
	}
	if fi := tx.rt.injector(); fi != nil {
		// Fault point: hold the write-set locks longer, widening the
		// mid-commit window other transactions see as locked words.
		yield.N(fi.CommitDelay(tx.self, tx.attempt))
		if spanned {
			mark = obs.Now() // the injected hold is not a validate cost
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
			tx.rt.tel.Inc(telemetry.ClockCASFallbacks, uint64(tx.self.Thread))
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
		var vt0 int64
		if spanned {
			vt0 = mark
		} else if tx.measure {
			vt0 = obs.Now()
		}
		if byWV, c, ok := tx.validateReads(); !ok {
			if c == obs.CauseReadValidation {
				c = valCause
			}
			tx.releaseLocks(0)
			tx.span.AddSince(obs.PhaseValidate, c, att, vt0)
			return 0, byWV, c, false
		}
		if tx.measure || spanned {
			end := obs.Now()
			if tx.measure {
				tx.valNs = uint64(end - vt0)
				tx.validated = true
			}
			if spanned {
				tx.span.Add(obs.PhaseValidate, obs.CauseNone, att, vt0, end-vt0)
				mark = end
			}
		}
	}
	tx.publishAt(wv)
	if spanned {
		tx.span.AddSince(obs.PhasePublish, obs.CauseNone, att, mark)
	}
	return wv, 0, obs.CauseNone, true
}
