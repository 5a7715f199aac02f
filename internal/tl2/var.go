package tl2

import (
	"sync/atomic"
	"unsafe"
)

// lockSlot is one TL2 versioned write-lock: the lock word (version<<1 |
// lockedBit) plus the ownership tag of the transaction currently holding
// the lock bit. Every base embeds its own slot.
type lockSlot struct {
	word atomic.Uint64
	// owner is the ownership tag (Tx.tag) of the transaction currently
	// holding word's lock bit, or zero. It is stored immediately after a
	// successful lock CAS and cleared immediately before the unlocking
	// store, so read-set validation answers "is this locked word mine?"
	// with one atomic load instead of scanning the lock list — the O(1)
	// ownership check that removes the O(reads×locks) validation scan. A
	// reader that observes the lock bit with owner still 0 (the acquire
	// window) correctly treats the location as locked by someone else: the
	// window only exists on other transactions' acquisitions, never on the
	// reader's own, whose stores are ordered by program order.
	owner atomic.Uint64
}

// base is the non-generic core of a transactional location: its versioned
// lock slot plus the published value snapshot as a raw pointer.
// Transactions track read and write sets as *base pointers so the commit
// protocol never needs to know element types.
//
// slot is the unboxed replacement for the old (atomic.Pointer[T] + apply
// closure) pair: the generic Var[T] constructor stores a *T here as an
// unsafe.Pointer, reads load it and dereference through the statically
// known T, and commit publishes a buffered write by storing the redo
// pointer — one word moved, zero interface conversions, zero closures.
type base struct {
	lk   lockSlot
	slot unsafe.Pointer // the current *T snapshot, loaded/stored atomically

	// wtrs heads the Treiber stack of transactions parked on this location
	// (tx.Retry under blocking mode; see waiters.go). The commit publish
	// path checks it with one atomic load per written location and wakes the
	// whole stack when it installs a new version — per-base wakeups instead
	// of a global broadcast. nil whenever nothing is parked here, which is
	// the permanent state of every location non-blocking workloads touch.
	wtrs atomic.Pointer[waiterNode]
}

// loadPtr atomically loads the published value snapshot.
func (b *base) loadPtr() unsafe.Pointer { return atomic.LoadPointer(&b.slot) }

// storePtr atomically publishes p as the new value snapshot.
func (b *base) storePtr(p unsafe.Pointer) { atomic.StorePointer(&b.slot, p) }

// Var is a transactional memory location holding a value of type T.
// All access inside a transaction must go through Read/Write; the initial
// value is set at construction and may be reset outside any transaction
// with Reset.
//
// Values are published as immutable *T snapshots: a transactional Write
// buffers a fresh pointer, and commit swings the slot pointer. Mutating
// the interior of a value previously read from a Var without writing a copy
// back is a logic error, exactly as in any write-back STM.
type Var[T any] struct {
	b base
}

// NewVar returns a transactional location initialized to val.
func NewVar[T any](val T) *Var[T] {
	v := &Var[T]{}
	v.b.storePtr(unsafe.Pointer(&val))
	return v
}

// Reset stores val non-transactionally. It must only be used during
// single-threaded setup or teardown phases (the paper's benchmarks
// initialize shared data before the timed transactional region).
func (v *Var[T]) Reset(val T) {
	v.b.storePtr(unsafe.Pointer(&val))
	v.b.lk.word.Store(0)
	v.b.lk.owner.Store(0)
}

// Peek loads the current value non-transactionally. Like Reset it is only
// safe when no transactions are running; it exists for result verification
// after a parallel phase completes.
func (v *Var[T]) Peek() T { return *(*T)(v.b.loadPtr()) }

// LockState reports v's embedded versioned lock word split into version
// and lock bit. It is a diagnostic for tests and fault-injection sweeps: at
// any quiescent point every location must report locked == false, or an
// abort path leaked a lock.
func (v *Var[T]) LockState() (version uint64, locked bool) {
	w := v.b.lk.word.Load()
	return wordVersion(w), wordLocked(w)
}

// Array is a fixed-length sequence of transactional locations of type T.
// Every element has its own versioned lock word, so disjoint-index accesses
// never conflict.
type Array[T any] struct {
	cells []Var[T]
}

// NewArray returns an Array of n elements, each initialized to the zero
// value of T. Construction allocates the cell slice and one shared zero
// box — published snapshots are immutable (Write buffers a fresh box and
// commit swings the pointer), so every element can alias the same initial
// *T. The old per-element apply closure (n func(any) allocations) is gone
// with the boxed protocol.
func NewArray[T any](n int) *Array[T] {
	a := &Array[T]{cells: make([]Var[T], n)}
	var zero T
	zp := unsafe.Pointer(&zero)
	for i := range a.cells {
		a.cells[i].b.storePtr(zp)
	}
	return a
}

// Len returns the number of elements.
func (a *Array[T]) Len() int { return len(a.cells) }

// At returns the i'th element as a *Var for use with Read/Write.
func (a *Array[T]) At(i int) *Var[T] { return &a.cells[i] }

// Reset stores val into element i non-transactionally (setup only).
func (a *Array[T]) Reset(i int, val T) { a.cells[i].Reset(val) }

// Peek loads element i non-transactionally (verification only).
func (a *Array[T]) Peek(i int) T { return a.cells[i].Peek() }
