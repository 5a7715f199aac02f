// Package wset is the shared transactional write-set of both STM engines
// (internal/tl2, internal/libtm): a small-vector redo log optimized for the
// hot path of short transactions.
//
// Layout and cost model:
//
//   - Entries live in a single slice kept sorted by location address. For
//     write sets up to InlineSize entries the slice is backed by an inline
//     array inside the Set (inside the pooled Tx), so short transactions
//     never allocate for bookkeeping; larger sets spill once to a heap
//     slice whose capacity is retained across transactions (the per-Tx
//     arena), so even spilling transactions amortize to zero steady-state
//     allocations.
//   - Lookups are a branch on a 64-bit filter word (the common read-only
//     and read-mostly miss answered in O(1) with no memory traffic beyond
//     the Set itself), then a binary search over the sorted entries.
//   - Iterating Entries() visits locations in ascending address order,
//     which is what gives the engines their deterministic commit-time lock
//     acquisition order (the TL2 deadlock-avoidance rule): two transactions
//     locking overlapping write sets acquire the shared prefix in the same
//     global order, so neither can hold a lock the other spins on while
//     spinning on a lock the other holds.
//
// Entries also carry the per-location lock bookkeeping (Pre, Locked) so the
// engines need no parallel lock slices and a commit can answer "do I hold
// this location?" from the entry itself.
//
// A Set is owned by a single transaction attempt and is not safe for
// concurrent use, exactly like the Tx that embeds it.
package wset

import "unsafe"

// InlineSize is the number of entries the inline fast path holds before the
// set spills to a heap-backed slice. Eight covers the write sets of the
// STAMP ports' common transactions (counters, two-account transfers,
// k-means centroid updates) without making the pooled Tx unreasonably big.
const InlineSize = 8

// maxRetainedCap bounds the spill capacity kept across Reset: a single
// monster transaction must not pin an arbitrarily large arena in the Tx
// pool forever.
const maxRetainedCap = 1024

// Entry is one buffered write: the location (Key, with its address addr as
// the sort key), the raw redo pointer, and the engine's lock bookkeeping
// for the location.
type Entry[K comparable] struct {
	addr uintptr
	// Key is the written location.
	Key K
	// Val is the engine's redo box as a raw pointer (a *T the generic
	// entry points publish without an interface conversion). The box is
	// private to the transaction until commit publishes it, so engines
	// update it in place on rewrites instead of boxing again. Typed as
	// unsafe.Pointer (not any) so the hot path moves one word with no
	// interface header and no type assertion.
	Val unsafe.Pointer
	// Pre is the location's pre-lock word, set when the lock is taken and
	// kept until the next Reset (tl2's abort path restores it, and its
	// commit reads the waiter mark from it after the release; libtm leaves
	// it zero).
	Pre uint64
	// Locked records that the owning transaction holds this location's
	// write lock (taken at encounter time or during commit).
	Locked bool
}

// Addr returns the entry's location address (the sort key).
func (e *Entry[K]) Addr() uintptr { return e.addr }

// Set is a small-vector write set. The zero value is ready for use.
type Set[K comparable] struct {
	filter  uint64
	entries []Entry[K]
	inline  [InlineSize]Entry[K]
}

// filterBit maps a location address to its bit in the 64-bit filter word.
// The low alignment bits are discarded before the Fibonacci-hash multiply
// so same-sized locations allocated together still spread over the word.
func filterBit(addr uintptr) uint64 {
	return uint64(1) << ((uint64(addr) >> 4) * 0x9e3779b97f4a7c15 >> 58)
}

// Len returns the number of buffered writes.
func (s *Set[K]) Len() int { return len(s.entries) }

// MayContain reports whether addr could be in the set: false means
// definitely absent (the O(1) miss check), true means a Lookup is needed.
func (s *Set[K]) MayContain(addr uintptr) bool {
	return s.filter&filterBit(addr) != 0
}

// find returns the index of addr in the sorted entries, or the insertion
// position when absent.
func (s *Set[K]) find(addr uintptr) (int, bool) {
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.entries[mid].addr < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.entries) && s.entries[lo].addr == addr {
		return lo, true
	}
	return lo, false
}

// Lookup returns the entry buffered for addr, or nil. falsePositive reports
// that the filter admitted addr but no entry matched — the diagnostic the
// engines count, since every false positive pays the search that the filter
// exists to skip. The returned pointer is invalidated by the next Insert.
func (s *Set[K]) Lookup(addr uintptr) (e *Entry[K], falsePositive bool) {
	if s.filter&filterBit(addr) == 0 {
		return nil, false
	}
	if i, ok := s.find(addr); ok {
		return &s.entries[i], false
	}
	return nil, true
}

// Insert adds an entry for (key, addr), keeping the entries sorted by
// address, and returns it for the caller to fill in. spilled reports that
// this insert grew the set past the inline fast path. If addr is already
// present its existing entry is returned. The returned pointer is
// invalidated by the next Insert.
func (s *Set[K]) Insert(key K, addr uintptr) (e *Entry[K], spilled bool) {
	if s.entries == nil {
		s.entries = s.inline[:0]
	}
	i, ok := s.find(addr)
	if ok {
		return &s.entries[i], false
	}
	spilled = len(s.entries) == InlineSize
	s.entries = append(s.entries, Entry[K]{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = Entry[K]{addr: addr, Key: key}
	s.filter |= filterBit(addr)
	return &s.entries[i], spilled
}

// Entries returns the buffered writes in ascending address order. The
// caller may mutate Val/Pre/Locked through the slice; it is invalidated by
// the next Insert or Reset.
func (s *Set[K]) Entries() []Entry[K] { return s.entries }

// Reset empties the set for the next transaction attempt, dropping every
// value reference so a pooled Tx does not retain dead redo boxes. Spill
// capacity up to maxRetainedCap is kept as the reusable per-Tx arena.
func (s *Set[K]) Reset() {
	for i := range s.entries {
		s.entries[i] = Entry[K]{}
	}
	if cap(s.entries) > maxRetainedCap {
		s.entries = nil // rebind to the inline array on next use
	} else {
		s.entries = s.entries[:0]
	}
	s.filter = 0
}
