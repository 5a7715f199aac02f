package stmds

import "gstm/internal/tl2"

// entry is one link of a bucket's chain. A bucket cell's published snapshot
// is the chain's head entry itself — key and value live in the box the cell
// points at — and next leads to the rest of the chain. used tells an empty
// cell from one holding key 0; it is true on every linked node.
//
// Entries are immutable once reachable: a mutation builds a new head,
// copying only the nodes in front of the one it changes and sharing the
// tail behind it, and publishes it with tl2.Write. Never write through a
// next pointer, whether it came from a published snapshot or from a value
// tl2.Read returned — concurrent readers and older snapshots share those
// nodes. Only the head copy tl2.Read hands back by value is private.
type entry[V any] struct {
	key  int64
	val  V
	next *entry[V]
	used bool
}

// find returns the node holding k in the chain headed by e, or nil.
func (e *entry[V]) find(k int64) *entry[V] {
	for n := e; n != nil; n = n.next {
		if n.key == k && n.used {
			return n
		}
	}
	return nil
}

// detach copies the nodes strictly between the private head e and hit, a
// node behind it, and returns the link in that copy which points at hit.
// Storing through the link edits the chain without touching a shared node.
func (e *entry[V]) detach(hit *entry[V]) **entry[V] {
	link := &e.next
	for n := e.next; n != hit; n = n.next {
		cp := *n
		*link = &cp
		link = &cp.next
	}
	return link
}

// HashTable maps int64 keys to values using fixed-size bucketing: one
// tl2.Array cell per bucket, each publishing its chain as an immutable
// snapshot (see entry). Conflicts — and blocking wake-ups — occur per
// bucket, so tables sized well above the working set behave like STAMP's
// low-contention hashtable.c dictionaries while a deliberately small table
// produces hot buckets. A mutation costs O(chain depth in front of the
// key); size the table at about the expected key count and that is O(1).
type HashTable[V any] struct {
	cells *tl2.Array[entry[V]]
	mask  uint64
	size  *tl2.Var[int]
}

// NewHashTable returns a table with nbuckets rounded up to a power of two
// (minimum 16).
func NewHashTable[V any](nbuckets int) *HashTable[V] {
	n := 16
	for n < nbuckets {
		n <<= 1
	}
	return &HashTable[V]{
		cells: tl2.NewArray[entry[V]](n),
		mask:  uint64(n - 1),
		size:  tl2.NewVar(0),
	}
}

func (h *HashTable[V]) cell(k int64) *tl2.Var[entry[V]] {
	x := uint64(k)
	// Fibonacci scrambling spreads sequential keys across buckets.
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	return h.cells.At(int(x & h.mask))
}

// Insert adds k→v, reporting false when k already exists.
func (h *HashTable[V]) Insert(tx *tl2.Tx, k int64, v V) bool {
	if !h.InsertNoCount(tx, k, v) {
		return false
	}
	tl2.Write(tx, h.size, tl2.Read(tx, h.size)+1)
	return true
}

// InsertNoCount is Insert without maintaining the global size counter.
// STAMP's genome builds its segment table this way to avoid serializing all
// inserts on one counter; Len is then unavailable.
func (h *HashTable[V]) InsertNoCount(tx *tl2.Tx, k int64, v V) bool {
	c := h.cell(k)
	e := tl2.Read(tx, c)
	head := entry[V]{key: k, val: v, used: true}
	if e.used {
		if e.find(k) != nil {
			return false
		}
		// The new key goes in front; the old head moves to the heap, here
		// and not above, so an insert into an empty bucket allocates only
		// the redo box.
		old := e
		head.next = &old
	}
	tl2.Write(tx, c, head)
	return true
}

// RemoveNoCount is Remove without maintaining the global size counter —
// the deletion dual of InsertNoCount, for stores whose keys are tracked
// (or deliberately untracked) outside the transaction, such as the
// serving layer's KV table where a transactional size cell would
// serialize every otherwise-disjoint insert and delete.
func (h *HashTable[V]) RemoveNoCount(tx *tl2.Tx, k int64) bool {
	c := h.cell(k)
	e := tl2.Read(tx, c)
	hit := e.find(k)
	switch {
	case hit == nil:
		return false
	case hit != &e: // behind the head: unlink it from a copied prefix
		*e.detach(hit) = hit.next
	case e.next != nil: // the head: its successor's copy takes its place
		e = *e.next
	default: // the bucket's only key
		e = entry[V]{}
	}
	tl2.Write(tx, c, e)
	return true
}

// Get returns the value stored under k.
func (h *HashTable[V]) Get(tx *tl2.Tx, k int64) (V, bool) {
	e := tl2.Read(tx, h.cell(k))
	if n := e.find(k); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Set updates an existing key, reporting whether it existed.
func (h *HashTable[V]) Set(tx *tl2.Tx, k int64, v V) bool {
	c := h.cell(k)
	e := tl2.Read(tx, c)
	hit := e.find(k)
	switch {
	case hit == nil:
		return false
	case hit != &e: // behind the head: a copy takes its place in the chain
		cp := *hit
		cp.val = v
		*e.detach(hit) = &cp
	default: // the head, already a private copy
		e.val = v
	}
	tl2.Write(tx, c, e)
	return true
}

// Remove deletes k, reporting whether it was present. It only maintains the
// size counter for keys inserted with Insert.
func (h *HashTable[V]) Remove(tx *tl2.Tx, k int64) bool {
	if !h.RemoveNoCount(tx, k) {
		return false
	}
	tl2.Write(tx, h.size, tl2.Read(tx, h.size)-1)
	return true
}

// Contains reports whether k is present.
func (h *HashTable[V]) Contains(tx *tl2.Tx, k int64) bool {
	e := tl2.Read(tx, h.cell(k))
	return e.find(k) != nil
}

// Len returns the number of Insert-ed elements.
func (h *HashTable[V]) Len(tx *tl2.Tx) int { return tl2.Read(tx, h.size) }

// NumBuckets returns the bucket count (for tests and sizing heuristics).
func (h *HashTable[V]) NumBuckets() int { return h.cells.Len() }

// RangeAll calls fn for every key/value pair, bucket by bucket, until fn
// returns false. It reads each bucket cell once — the chain behind it is
// that one snapshot — so a bucket is always seen whole. Order is
// unspecified.
func (h *HashTable[V]) RangeAll(tx *tl2.Tx, fn func(k int64, v V) bool) {
	for i := range h.cells.Len() {
		e := tl2.ReadAt(tx, h.cells, i)
		if !e.used {
			continue
		}
		for n := &e; n != nil; n = n.next {
			if !fn(n.key, n.val) {
				return
			}
		}
	}
}
