package tl2

import (
	"context"
	"sync"
	"sync/atomic"
)

// Composable blocking (tx.Retry / Select / Compose).
//
// A transaction that finds the state unusable — an empty queue, a key that
// is not there yet — calls tx.Retry(): the attempt aborts, and instead of
// spinning through retries the goroutine parks until some commit changes a
// location the attempt read. The design follows the classic STM `retry`
// (SNIPPETS.md §2–3 shows the anacrolix/stm surface) with per-location
// wakeups, not a global broadcast: a commit wakes only the parkers of the
// locations it wrote, so wakeups scale with real conflicts, not with the
// number of parked connections.
//
// A location carries no waiter list of its own — that would be a word on
// every location for the few that are ever parked on. Instead, waitBit in
// the lock word marks a location somebody waits on, and the waiters live in
// a process-wide side table keyed by *base: one mutex-guarded map, each
// entry a doubly-linked list of waiterNodes. Only parkers, and commits whose
// pre-lock word (the write-set entry's Pre) carries the mark, ever touch it;
// every other commit tests a register per written location.
//
// Lost-wakeup safety is the register → mark → sleep protocol:
//
//  1. the parker links a node into the side-table list of every base it
//     read;
//  2. it then marks each base: it CASes waitBit onto the lock word while
//     the word is unlocked and at a version no newer than the attempt's
//     read version rv. A newer version (something already changed) or a
//     held lock (a commit in flight) makes it skip the sleep and retry at
//     once;
//  3. only then does it sleep on its wakeup channel;
//  4. on every return — woken, canceled, or skipped sleep — it removes its
//     own nodes, so the table holds only live parkers and never pins a
//     location whose owner has gone.
//
// A committing writer locks the word (its Pre then carries the mark of
// every parker that marked before the lock), publishes and releases at its
// wv, which clears the mark, and only then drains and wakes the list of
// each written location whose Pre had the mark. Go's atomics are
// sequentially consistent: a parker whose mark CAS precedes the lock CAS
// linked its node even earlier, so the drain finds it; a parker whose mark
// would follow the lock CAS finds the word locked or already at a version
// above rv, and skips the sleep. An abort restores Pre, mark included, so
// the next commit of the location still drains. The wakeup cannot fall
// between the cracks.
//
// A park allocates its nodes in one slice (the parking path is the slow
// path; the zero-alloc budget protects only non-blocking transactions). A drained
// node whose parker already left, or one woken through another location,
// costs at most a spurious wakeup of the parker's next park cycle, which the
// mark step of that park absorbs. All races therefore degrade to spurious
// wakeups, never lost ones.

// waiterNode is one parked transaction's registration on one base: a link
// in that base's doubly-linked list in the side table, so its parker can
// unlink it in O(1) however many others wait on the same base. linked says
// whether it is still in the list; a drain clears it, and an unregister
// then leaves the node alone.
type waiterNode struct {
	w          *parkWaiter
	b          *base
	prev, next *waiterNode
	linked     bool
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

// waitTable maps each base some transaction is parked on to the head of
// its waiter list. One mutex guards it: a park takes it twice (register,
// unregister) and a drain once. A subscriber load of hundreds of parked
// watches against steady commits served the same with a 64-way sharded
// table, so the table is not sharded.
var waitTable struct {
	mu sync.Mutex
	m  map[*base]*waiterNode
}

// registerWaiters links every node at the head of its base's list.
func registerWaiters(nodes []waiterNode) {
	waitTable.mu.Lock()
	if waitTable.m == nil {
		waitTable.m = make(map[*base]*waiterNode)
	}
	for i := range nodes {
		n := &nodes[i]
		head := waitTable.m[n.b]
		n.next, n.linked = head, true
		if head != nil {
			head.prev = n
		}
		waitTable.m[n.b] = n
	}
	waitTable.mu.Unlock()
}

// unregisterWaiters unlinks every node a drain has not already taken,
// dropping a base's entry once its list is empty.
func unregisterWaiters(nodes []waiterNode) {
	waitTable.mu.Lock()
	for i := range nodes {
		n := &nodes[i]
		if !n.linked {
			continue
		}
		n.linked = false
		if n.next != nil {
			n.next.prev = n.prev
		}
		switch {
		case n.prev != nil:
			n.prev.next = n.next
		case n.next != nil:
			waitTable.m[n.b] = n.next
		default:
			delete(waitTable.m, n.b)
		}
	}
	waitTable.mu.Unlock()
}

// wakeWaiters detaches b's whole list from the side table and signals
// every waiter on it. The commit protocol calls it after publishing b at a
// new version, for each written base whose pre-lock word carried waitBit.
// The detached nodes are marked under the mutex and never relinked (a park
// allocates fresh ones), so the signalling walk runs outside it.
func wakeWaiters(b *base) {
	waitTable.mu.Lock()
	head := waitTable.m[b]
	delete(waitTable.m, b)
	for n := head; n != nil; n = n.next {
		n.linked = false
	}
	waitTable.mu.Unlock()
	for n := head; n != nil; n = n.next {
		n.w.wake()
	}
}

// markWaited sets waitBit on b's word while it is unlocked at a version no
// newer than rv, and reports whether it could: false means a commit is in
// flight on b or already published past rv, so the parker must not sleep.
func markWaited(b *base, rv uint64) bool {
	for {
		w := b.word.Load()
		if wordLocked(w) || wordVersion(w) > rv {
			return false
		}
		if w&waitBit != 0 || b.word.CompareAndSwap(w, w|waitBit) {
			return true
		}
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

// parkOnReads implements steps 1–4 above for the current attempt's read
// set. It returns parked=true when the goroutine actually slept and was
// woken by a commit; parked=false when the mark step found a change already
// published or in flight (retry immediately). A non-nil error is terminal
// for the Run call: ErrWouldBlock for an empty read set (nothing could ever
// wake us), or the park context's error.
func (tx *Tx) parkOnReads(ctx context.Context) (parked bool, err error) {
	if len(tx.reads) == 0 {
		return false, ErrWouldBlock
	}
	w := &tx.parkW
	w.prepare()
	nodes := make([]waiterNode, len(tx.reads))
	for i, b := range tx.reads {
		nodes[i] = waiterNode{w: w, b: b}
	}
	registerWaiters(nodes)
	defer unregisterWaiters(nodes)
	for _, b := range tx.reads {
		if !markWaited(b, tx.rv) {
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
