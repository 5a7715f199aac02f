package libtm

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// objBase is the non-generic core of a transactional object: its writer
// lock, visible-reader list and the published value snapshot as a raw
// pointer (the same unboxed slot protocol as tl2's base — commit publishes
// a redo box with one pointer store, no apply closure, no interface hop).
// The reader list is guarded by a small mutex; LibTM's visible readers are
// inherently a shared structure and the experiments run on a single core,
// where a short critical section costs less than a lock-free multi-writer
// set.
type objBase struct {
	mu      sync.Mutex
	writer  *txState              // commit-lock holder, nil when free
	readers map[*txState]struct{} // registered active readers
	version atomic.Uint64
	slot    unsafe.Pointer // the current *T snapshot, loaded/stored atomically
}

// loadPtr atomically loads the published value snapshot.
func (b *objBase) loadPtr() unsafe.Pointer { return atomic.LoadPointer(&b.slot) }

// storePtr atomically publishes p as the new value snapshot.
func (b *objBase) storePtr(p unsafe.Pointer) { atomic.StorePointer(&b.slot, p) }

// Obj is a transactional object holding a value of type T, the
// object-granularity unit of LibTM conflict detection (SynQuake wraps each
// game entity and spatial cell in one).
type Obj[T any] struct {
	b objBase
}

// NewObj returns an object initialized to val.
func NewObj[T any](val T) *Obj[T] {
	o := &Obj[T]{}
	o.b.storePtr(unsafe.Pointer(&val))
	o.b.readers = make(map[*txState]struct{})
	return o
}

// Peek loads the current value non-transactionally (setup and verification
// only).
func (o *Obj[T]) Peek() T { return *(*T)(o.b.loadPtr()) }

// Reset stores val non-transactionally (setup only).
func (o *Obj[T]) Reset(val T) { o.b.storePtr(unsafe.Pointer(&val)) }

// LockState reports whether a writer currently holds the object and how
// many readers are registered. It is a diagnostic for tests and
// fault-injection sweeps: at any quiescent point both must be zero, or an
// abort path leaked a lock or registration.
func (o *Obj[T]) LockState() (writerHeld bool, readers int) {
	o.b.mu.Lock()
	defer o.b.mu.Unlock()
	return o.b.writer != nil, len(o.b.readers)
}

// registerReader adds tx to the object's visible-reader list. It refuses
// only while a writer holding the object is inside its commit's
// resolve→publish window (txState.committing), which is what guarantees
// every registered reader of a pre-publish value is doomed — a
// registration during the window could otherwise load a stale snapshot the
// resolution pass never saw.
func (b *objBase) registerReader(tx *txState) (ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.writer != nil && b.writer != tx && b.writer.committing.Load() {
		return false
	}
	b.readers[tx] = struct{}{}
	return true
}

// deregisterReader removes tx from the reader list.
func (b *objBase) deregisterReader(tx *txState) {
	b.mu.Lock()
	delete(b.readers, tx)
	b.mu.Unlock()
}

// tryLockWriter attempts to make tx the object's writer. It fails when
// another transaction holds the write lock.
func (b *objBase) tryLockWriter(tx *txState) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.writer != nil && b.writer != tx {
		return false
	}
	b.writer = tx
	return true
}

// unlockWriter releases tx's write lock if it holds it.
func (b *objBase) unlockWriter(tx *txState) {
	b.mu.Lock()
	if b.writer == tx {
		b.writer = nil
	}
	b.mu.Unlock()
}

// resolveReaders dooms every registered reader other than writer tx,
// recording tx's commit sequence as the cause.
func (b *objBase) resolveReaders(tx *txState, wv uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for r := range b.readers {
		if r != tx {
			r.doom(wv)
		}
	}
}
