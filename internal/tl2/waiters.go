package tl2

import (
	"context"
	"sync/atomic"
)

// Composable blocking (tx.Retry / Select / Compose).
//
// A transaction that finds the state unusable — an empty queue, a key that
// is not there yet — calls tx.Retry(): the attempt aborts, and instead of
// spinning through retries the goroutine parks until some commit changes a
// location the attempt read. The design follows the classic STM `retry`
// (SNIPPETS.md §2–3 shows the anacrolix/stm surface) with one deliberate
// departure: wakeup tracking is a per-base waiter list riding the existing
// lock-word publish path, not a global broadcast. A commit already walks
// its write set holding the lock words; waking the waiters of
// exactly the bases it wrote costs one atomic nil-check per written
// location on the non-blocking fast path (CI-gated zero-alloc) and scales
// with real conflicts, not with the number of parked connections — the
// shared-metadata-contention trap the Pasqualin survey warns about and the
// ROADMAP's "millions of connections" target forbids.
//
// Lost-wakeup safety is the register → validate → sleep protocol:
//
//  1. the parker pushes a node onto the waiter stack of every base it read;
//  2. it then re-loads each base's versioned lock word: a version above the
//     attempt's read version rv (or a held lock) means something already
//     changed, so it retries immediately instead of sleeping;
//  3. only then does it sleep on its wakeup channel.
//
// A committing writer stores the new versions (releaseLocks) strictly
// before detaching and signalling the waiter stacks. Go's atomics are
// sequentially consistent, so a parker whose push lands after the writer's
// detach must observe the already-published version in step 2 and skips the
// sleep; a push that lands before the detach is in the detached list and
// gets signalled. Either way the wakeup cannot fall between the cracks.
//
// Nodes are allocated per park (the parking path is the slow path; the
// zero-alloc budget protects only non-blocking transactions) and are
// reclaimed when their base is next written. A node the waiter abandons —
// it woke via another base, or its park context ended — stays linked until
// then; signalling it later is a spurious wakeup, which the validate step
// of the next park absorbs. All races therefore degrade to spurious
// wakeups, never lost ones.

// waiterNode is one parked transaction's registration on one base: a link
// in the base's Treiber-stack waiter list.
type waiterNode struct {
	w    *parkWaiter
	next *waiterNode
}

// parkWaiter is the per-Tx wakeup record shared by all of a park's nodes.
// It is embedded in the pooled Tx and reused across parks: fired gates the
// single channel send per park cycle, and stale signals from nodes of an
// earlier park at worst deliver a spurious wakeup.
type parkWaiter struct {
	ch    chan struct{}
	fired atomic.Bool
}

// prepare readies the waiter for a new park cycle: any stale token from an
// abandoned earlier park is drained before the fired gate reopens.
func (w *parkWaiter) prepare() {
	if w.ch == nil {
		w.ch = make(chan struct{}, 1)
	}
	select {
	case <-w.ch:
	default:
	}
	w.fired.Store(false)
}

// wake delivers at most one wakeup per park cycle. Safe to call from any
// number of committers concurrently, including stale ones.
func (w *parkWaiter) wake() {
	if w.fired.CompareAndSwap(false, true) {
		select {
		case w.ch <- struct{}{}:
		default:
		}
	}
}

// registerWaiter pushes n onto b's waiter stack.
func (b *base) registerWaiter(n *waiterNode) {
	for {
		h := b.wtrs.Load()
		n.next = h
		if b.wtrs.CompareAndSwap(h, n) {
			return
		}
	}
}

// wakeWaiters detaches b's whole waiter stack and signals every waiter on
// it. Called by the commit protocol after the new version is published, and
// only when the stack head was observed non-nil.
func (b *base) wakeWaiters() {
	for n := b.wtrs.Swap(nil); n != nil; n = n.next {
		n.w.wake()
	}
}

// retrySignal is panicked by Tx.Retry and recovered by runBody (ending the
// attempt) or by Select (moving to the next alternative).
type retrySignal struct{}

// Retry aborts the current attempt and declares it blocked: the state the
// body observed is not usable yet. Under WithBlocking the goroutine parks
// on every location the attempt read and re-runs when a commit changes one
// of them; without blocking the Run call returns ErrWouldBlock. Writes
// buffered before Retry are discarded with the attempt.
func (tx *Tx) Retry() {
	panic(retrySignal{})
}

// parkOnReads implements steps 1–3 above for the current attempt's read
// set. It returns parked=true when the goroutine actually slept and was
// woken by a commit; parked=false when validation found a change already
// published (retry immediately). A non-nil error is terminal for the Run
// call: ErrWouldBlock for an empty read set (nothing could ever wake
// us), or the park context's error.
func (tx *Tx) parkOnReads(ctx context.Context) (parked bool, err error) {
	if len(tx.reads) == 0 {
		return false, ErrWouldBlock
	}
	w := &tx.parkW
	w.prepare()
	for _, b := range tx.reads {
		b.registerWaiter(&waiterNode{w: w})
	}
	for _, b := range tx.reads {
		wd := b.lk.word.Load()
		// A held lock is a commit in flight on this base; skip the sleep
		// rather than reason about whether its publish will cover our
		// registration.
		if wordLocked(wd) || wordVersion(wd) > tx.rv {
			return false, nil
		}
	}
	tx.rt.tel.TxParked(uint64(tx.self.Thread))
	if ctx == nil {
		<-w.ch
		return true, nil
	}
	select {
	case <-w.ch:
		return true, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// Select returns a transaction function that races alternatives: each fn is
// tried in order and the first one that does not call Retry decides the
// transaction (its error return included). When every alternative retries,
// the combined function itself retries — the transaction then parks on the
// union of everything the alternatives read, so a commit enabling any one
// of them wakes it.
//
// Like the classic STM orElse, a retrying alternative's *reads* stay on the
// attempt's read set, and — matching the anacrolix/stm exemplar — its
// buffered writes are not rolled back either: alternatives should check
// their guard (and Retry) before writing.
func Select(fns ...func(*Tx) error) func(*Tx) error {
	return func(tx *Tx) error {
		for _, fn := range fns {
			if err, retried := catchRetry(fn, tx); !retried {
				return err
			}
		}
		tx.Retry()
		panic("unreachable")
	}
}

// Compose returns a transaction function that chains fns into one atomic
// unit: each runs in order, a non-nil error stops the chain, and a Retry in
// any of them blocks (or ErrWouldBlock's) the whole composition.
func Compose(fns ...func(*Tx) error) func(*Tx) error {
	return func(tx *Tx) error {
		for _, fn := range fns {
			if err := fn(tx); err != nil {
				return err
			}
		}
		return nil
	}
}

// catchRetry runs fn, converting a Retry into a flag while letting every
// other panic — including conflictSignal, which must reach the engine —
// propagate.
func catchRetry(fn func(*Tx) error, tx *Tx) (err error, retried bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(retrySignal); ok {
				retried = true
				return
			}
			panic(r)
		}
	}()
	return fn(tx), false
}
