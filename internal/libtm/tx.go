package libtm

import (
	"errors"
	"sync/atomic"
	"unsafe"

	"gstm/internal/obs"
	"gstm/internal/txid"
	"gstm/internal/wset"
	"gstm/internal/yield"
)

// txState is the shared-visibility part of a transaction attempt: other
// transactions find it in reader lists and doom it through it.
type txState struct {
	self txid.Pair
	// doomWV is the write version of the commit that doomed this attempt,
	// 0 while it is not doomed.
	doomWV atomic.Uint64
	// committing is set for the window between the commit's reader
	// resolution and the end of publishing. Optimistic readers refuse to
	// register on an object whose writer is in this window: a registration
	// slipping in after the object's resolveReaders pass but before its
	// publish would read a stale value without ever being doomed (the torn
	// read the resolution pass exists to prevent). Readers registered
	// before resolution are doomed as usual; readers arriving during the
	// window retry until the writer finishes.
	committing atomic.Bool
}

// doom marks the transaction aborted by the commit at wv (never 0). Only
// the first doom records attribution.
func (st *txState) doom(wv uint64) { st.doomWV.CompareAndSwap(0, wv) }

// conflict carries abort attribution out of a transaction body. byWV is
// the dooming commit's write version, 0 when the attempt cannot name the
// commit that invalidated it. cause classifies the conflict for the abort
// taxonomy: a doom is a read invalidation (the committing writer
// invalidated our visible read), a spin-bound exhaustion is lock-busy.
type conflict struct {
	byWV  uint64
	cause obs.Cause
}

// doomConflict returns the conflict describing this attempt's doom, or nil
// while it is not doomed.
func doomConflict(st *txState) *conflict {
	if wv := st.doomWV.Load(); wv != 0 {
		return &conflict{byWV: wv, cause: obs.CauseReadValidation}
	}
	return nil
}

// Tx is one attempt of a LibTM transaction.
type Tx struct {
	rt    *Runtime
	st    *txState
	reads []*objBase
	// ws is the same small-vector write set tl2 uses (internal/wset):
	// address-sorted entries with an inline fast path, a filter word for
	// O(1) read-after-write miss checks, and per-entry lock bookkeeping
	// (Entry.Locked replaces the separate locked slice; objBase write
	// locks have no pre-word, so Entry.Pre stays zero).
	ws      wset.Set[*objBase]
	attempt int
	op      yield.Op // the Interleave roll at each read and write
}

func (tx *Tx) reset(rt *Runtime, self txid.Pair, attempt int) {
	tx.rt = rt
	tx.st = &txState{self: self} // fresh shared state: old dooms must not leak
	tx.reads = tx.reads[:0]
	tx.ws.Reset()
	tx.attempt = attempt
}

// Self returns the attempt's (transaction, thread) pair.
func (tx *Tx) Self() txid.Pair { return tx.st.self }

// Attempt returns the zero-based retry count.
func (tx *Tx) Attempt() int { return tx.attempt }

func (tx *Tx) abort(c *conflict) {
	panic(c)
}

// ErrBlockingUnsupported is returned by a Run whose body called Retry:
// LibTM's visible-reader protocol has no per-location waiter lists, so the
// engine cannot park a transaction on its read set the way tl2 does. The
// sentinel is typed so callers sharing transaction bodies across engines
// can detect the capability gap with errors.Is instead of blocking forever
// or silently spinning.
var ErrBlockingUnsupported = errors.New("libtm: blocking (tx.Retry) is not supported by this engine")

// retrySignal is panicked by Retry and converted by runBody into
// ErrBlockingUnsupported.
type retrySignal struct{}

// Retry mirrors the tl2 composable-blocking primitive's signature so
// transaction bodies stay engine-portable, but LibTM does not implement
// parking: the enclosing Run returns ErrBlockingUnsupported. Writes
// buffered before Retry are discarded with the attempt.
func (tx *Tx) Retry() {
	panic(retrySignal{})
}

// checkDoomed aborts the attempt when a committing writer has doomed it.
func (tx *Tx) checkDoomed() {
	if c := doomConflict(tx.st); c != nil {
		tx.abort(c)
	}
}

// objAddr is the write-set key of b: its address, also the deterministic
// commit-time lock ordering key.
func objAddr(b *objBase) uintptr { return uintptr(unsafe.Pointer(b)) }

// readBase implements the LibTM read protocol: register as a visible
// reader (retrying while a writer is publishing the object), load the
// value, then re-check the doom flag so a value published after our
// registration can never enter the read set unnoticed. The
// snapshot is returned as a raw pointer for the generic Read to
// dereference — no closure, no interface conversion (the unboxed protocol
// mirrored from tl2).
func (tx *Tx) readBase(b *objBase) unsafe.Pointer {
	tx.op.Yield(tx.rt.cfg.Interleave)
	tx.checkDoomed()
	if e, fp := tx.ws.Lookup(objAddr(b)); e != nil {
		return e.Val
	} else if fp {
		tx.rt.tel.FilterFalsePositives.Inc(uint64(tx.st.self.Thread))
	}
	for spins := 0; !b.registerReader(tx.st); spins++ {
		if spins >= maxSpin {
			tx.abort(&conflict{cause: obs.CauseLockBusy})
		}
		yield.Spin()
		tx.checkDoomed()
	}
	tx.reads = append(tx.reads, b)
	p := b.loadPtr()
	tx.checkDoomed()
	return p
}

// Read returns o's value inside the transaction.
func Read[T any](tx *Tx, o *Obj[T]) T {
	return *(*T)(tx.readBase(&o.b))
}

// box copies val to a fresh heap box, kept out of Write so the in-place
// rewrite fast path stays allocation-free (see tl2).
func box[T any](val T) *T {
	v := val
	return &v
}

// Write buffers val as tx's pending write to o; the object's write lock is
// taken at commit. Rewrites of an already-buffered object update the
// private redo box in place without allocating.
func Write[T any](tx *Tx, o *Obj[T], val T) {
	tx.op.Yield(tx.rt.cfg.Interleave)
	tx.checkDoomed()
	b := &o.b
	addr := objAddr(b)
	if e, fp := tx.ws.Lookup(addr); e != nil {
		// The entry keyed by b was inserted by a Write through the same
		// Obj[T] (the base is embedded in it), so the redo box is a *T.
		*(*T)(e.Val) = val
		return
	} else if fp {
		tx.rt.tel.FilterFalsePositives.Inc(uint64(tx.st.self.Thread))
	}
	e, spilled := tx.ws.Insert(b, addr)
	e.Val = unsafe.Pointer(box(val))
	if spilled {
		tx.rt.tel.WriteSetSpills.Inc(uint64(tx.st.self.Thread))
	}
}

// cleanup releases all write locks and reader registrations. Idempotent:
// entries release their lock at most once.
func (tx *Tx) cleanup() {
	ents := tx.ws.Entries()
	for i := range ents {
		if ents[i].Locked {
			ents[i].Key.unlockWriter(tx.st)
			ents[i].Locked = false
		}
	}
	for _, b := range tx.reads {
		b.deregisterReader(tx.st)
	}
	tx.reads = tx.reads[:0]
}

// scrub clears the write set after cleanup so a Tx abandoned on a user
// panic pools clean (cleanup already released locks and registrations).
func (tx *Tx) scrub() {
	tx.ws.Reset()
}

// commit runs the LibTM commit protocol: acquire the write locks (in
// ascending object address order, the same deterministic rule as tl2's
// commit locking), draw the commit sequence number, doom the registered
// readers, re-check our own doom flag, publish, release.
func (tx *Tx) commit() (wv uint64, c *conflict, ok bool) {
	if c := doomConflict(tx.st); c != nil {
		return 0, c, false
	}
	ents := tx.ws.Entries()
	if len(ents) == 0 {
		tx.cleanup()
		return seq.Add(1), nil, true
	}
	for i := range ents {
		if !tx.tryLockBounded(&ents[i], ents[i].Key) {
			return 0, &conflict{cause: obs.CauseLockBusy}, false
		}
	}
	// Enter the resolve→publish window: from here until the publish loop
	// finishes, readers cannot register on our locked objects
	// (registerReader refuses), so every reader that could observe a
	// pre-publish value is already registered and will be doomed below.
	// Cleared on every exit path.
	tx.st.committing.Store(true)
	defer tx.st.committing.Store(false)
	if fi := tx.rt.injector(); fi != nil {
		// Fault point: hold the write locks longer before publishing.
		yield.N(fi.CommitDelay(tx.st.self, tx.attempt))
	}
	wv = seq.Add(1)
	for i := range ents {
		ents[i].Key.resolveReaders(tx.st, wv)
	}
	// A concurrent committer may have doomed us through an object we read;
	// our dooms above are only undone by those readers retrying, which is
	// the abort-readers policy's intended behaviour.
	if c := doomConflict(tx.st); c != nil {
		return 0, c, false
	}
	for i := range ents {
		b := ents[i].Key
		b.storePtr(ents[i].Val)
		b.version.Add(1)
	}
	tx.cleanup()
	return wv, nil, true
}

// tryLockBounded acquires b's write lock with bounded spinning, reporting
// false on exhaustion; the committing caller owns cleanup.
func (tx *Tx) tryLockBounded(e *wset.Entry[*objBase], b *objBase) bool {
	for spins := 0; ; spins++ {
		if b.tryLockWriter(tx.st) {
			e.Locked = true
			return true
		}
		if spins >= maxSpin {
			return false
		}
		yield.Spin()
	}
}
