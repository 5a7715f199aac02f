// Package stmds provides transactional data structures built on the TL2
// engine: a sorted linked list, a hash table, a treap-based ordered map, a
// FIFO queue and a binary heap. They are the building blocks of the STAMP
// workload ports (internal/stamp), mirroring the C suite's lib/ directory
// (list.c, hashtable.c, rbtree.c, queue.c, heap.c).
//
// Every structure is manipulated inside a *tl2.Tx; all mutable state is
// reached through tl2.Var cells, so conflicts are detected at the same
// granularity as the original benchmarks: per node for the list, treap and
// queue, per bucket for the hash table, which keeps each bucket's chain as
// one immutable snapshot behind one cell (hashtable.go) rather than as a
// List.
package stmds

import "gstm/internal/tl2"

// listNode is a sorted-list node. Key is immutable after insertion; Val and
// Next are transactional.
type listNode[V any] struct {
	key  int64
	val  *tl2.Var[V]
	next *tl2.Var[*listNode[V]]
}

// List is a sorted singly-linked list mapping int64 keys to values, the
// analogue of STAMP's list.c. Duplicate keys are rejected by Insert.
type List[V any] struct {
	head *tl2.Var[*listNode[V]] // sentinel-free: head points at first node
	size *tl2.Var[int]
}

// NewList returns an empty list.
func NewList[V any]() *List[V] {
	return &List[V]{
		head: tl2.NewVar[*listNode[V]](nil),
		size: tl2.NewVar(0),
	}
}

// find returns the node with key k and its predecessor's next-cell
// (the head cell when the node would be first). node is nil when absent, in
// which case prev is where a new node must be linked.
func (l *List[V]) find(tx *tl2.Tx, k int64) (prev *tl2.Var[*listNode[V]], node *listNode[V]) {
	prev = l.head
	for {
		n := tl2.Read(tx, prev)
		if n == nil || n.key > k {
			return prev, nil
		}
		if n.key == k {
			return prev, n
		}
		prev = n.next
	}
}

// Insert adds k→v. It reports false (and changes nothing) when k is already
// present.
func (l *List[V]) Insert(tx *tl2.Tx, k int64, v V) bool {
	prev, node := l.find(tx, k)
	if node != nil {
		return false
	}
	succ := tl2.Read(tx, prev)
	n := &listNode[V]{
		key:  k,
		val:  tl2.NewVar(v),
		next: tl2.NewVar(succ),
	}
	tl2.Write(tx, prev, n)
	tl2.Write(tx, l.size, tl2.Read(tx, l.size)+1)
	return true
}

// Get returns the value for k.
func (l *List[V]) Get(tx *tl2.Tx, k int64) (V, bool) {
	_, node := l.find(tx, k)
	if node == nil {
		var zero V
		return zero, false
	}
	return tl2.Read(tx, node.val), true
}

// Set updates the value of an existing key, reporting whether it existed.
func (l *List[V]) Set(tx *tl2.Tx, k int64, v V) bool {
	_, node := l.find(tx, k)
	if node == nil {
		return false
	}
	tl2.Write(tx, node.val, v)
	return true
}

// Remove deletes k, reporting whether it was present.
func (l *List[V]) Remove(tx *tl2.Tx, k int64) bool {
	prev, node := l.find(tx, k)
	if node == nil {
		return false
	}
	tl2.Write(tx, prev, tl2.Read(tx, node.next))
	tl2.Write(tx, l.size, tl2.Read(tx, l.size)-1)
	return true
}

// Contains reports whether k is present.
func (l *List[V]) Contains(tx *tl2.Tx, k int64) bool {
	_, node := l.find(tx, k)
	return node != nil
}

// Len returns the number of elements.
func (l *List[V]) Len(tx *tl2.Tx) int { return tl2.Read(tx, l.size) }

// Range calls fn for each key/value in ascending key order until fn
// returns false. The iteration itself is transactional (every traversed
// node joins the read set).
func (l *List[V]) Range(tx *tl2.Tx, fn func(k int64, v V) bool) {
	cur := tl2.Read(tx, l.head)
	for cur != nil {
		if !fn(cur.key, tl2.Read(tx, cur.val)) {
			return
		}
		cur = tl2.Read(tx, cur.next)
	}
}
