package stmds

import (
	"errors"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gstm/internal/tl2"
	"gstm/internal/txid"
	"gstm/internal/xrand"
)

// atomically runs fn in a fresh single-threaded transaction and fails the
// test on error.
func atomically(t *testing.T, rt *tl2.Runtime, fn func(tx *tl2.Tx) error) {
	t.Helper()
	if err := rt.Atomic(0, 0, fn); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
}

func newRT() *tl2.Runtime { return tl2.New(tl2.Config{}) }

func TestListSequentialOps(t *testing.T) {
	rt := newRT()
	l := NewList[string]()
	atomically(t, rt, func(tx *tl2.Tx) error {
		for _, k := range []int64{5, 1, 3, 9, 7} {
			if !l.Insert(tx, k, "v") {
				t.Errorf("Insert(%d) failed", k)
			}
		}
		if l.Insert(tx, 3, "dup") {
			t.Error("duplicate Insert succeeded")
		}
		if l.Len(tx) != 5 {
			t.Errorf("Len = %d", l.Len(tx))
		}
		if v, ok := l.Get(tx, 7); !ok || v != "v" {
			t.Errorf("Get(7) = %q, %v", v, ok)
		}
		if _, ok := l.Get(tx, 4); ok {
			t.Error("Get(4) found absent key")
		}
		if !l.Set(tx, 9, "nine") {
			t.Error("Set(9) failed")
		}
		if v, _ := l.Get(tx, 9); v != "nine" {
			t.Errorf("Get(9) = %q", v)
		}
		if l.Set(tx, 100, "x") {
			t.Error("Set of absent key succeeded")
		}
		if !l.Remove(tx, 5) || l.Remove(tx, 5) {
			t.Error("Remove semantics wrong")
		}
		// Ascending iteration order.
		var keys []int64
		l.Range(tx, func(k int64, v string) bool {
			keys = append(keys, k)
			return true
		})
		want := []int64{1, 3, 7, 9}
		if len(keys) != len(want) {
			t.Fatalf("Range keys = %v", keys)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("Range keys = %v, want %v", keys, want)
			}
		}
		return nil
	})
}

func TestListRangeEarlyStop(t *testing.T) {
	rt := newRT()
	l := NewList[int]()
	atomically(t, rt, func(tx *tl2.Tx) error {
		for i := int64(0); i < 10; i++ {
			l.Insert(tx, i, int(i))
		}
		n := 0
		l.Range(tx, func(k int64, v int) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Errorf("early stop visited %d", n)
		}
		return nil
	})
}

func TestHashTableSequential(t *testing.T) {
	rt := newRT()
	h := NewHashTable[int](64)
	if h.NumBuckets() != 64 {
		t.Fatalf("NumBuckets = %d", h.NumBuckets())
	}
	atomically(t, rt, func(tx *tl2.Tx) error {
		for i := int64(0); i < 200; i++ {
			if !h.Insert(tx, i, int(i*2)) {
				t.Fatalf("Insert(%d) failed", i)
			}
		}
		if h.Insert(tx, 100, 0) {
			t.Error("duplicate insert succeeded")
		}
		if h.Len(tx) != 200 {
			t.Errorf("Len = %d", h.Len(tx))
		}
		for i := int64(0); i < 200; i++ {
			v, ok := h.Get(tx, i)
			if !ok || v != int(i*2) {
				t.Fatalf("Get(%d) = %d, %v", i, v, ok)
			}
		}
		if !h.Remove(tx, 50) || h.Contains(tx, 50) {
			t.Error("Remove(50) broken")
		}
		if h.Len(tx) != 199 {
			t.Errorf("Len after remove = %d", h.Len(tx))
		}
		count := 0
		h.RangeAll(tx, func(k int64, v int) bool {
			count++
			return true
		})
		if count != 199 {
			t.Errorf("RangeAll visited %d", count)
		}
		return nil
	})
}

func TestHashTableNoCountInsertSkipsCounter(t *testing.T) {
	rt := newRT()
	h := NewHashTable[int](16)
	atomically(t, rt, func(tx *tl2.Tx) error {
		h.InsertNoCount(tx, 1, 1)
		if h.Len(tx) != 0 {
			t.Errorf("Len = %d after InsertNoCount", h.Len(tx))
		}
		if !h.Contains(tx, 1) {
			t.Error("InsertNoCount element missing")
		}
		return nil
	})
}

// bucketMates returns n keys, counting up from 0, that hash to key 0's
// bucket of h.
func bucketMates[V any](h *HashTable[V], n int) []int64 {
	var ks []int64
	for k := int64(0); len(ks) < n; k++ {
		if h.cell(k) == h.cell(0) {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestHashTableMatchesMapOracle drives every operation against a map on a
// table so small that each one walks, and each mutation path-copies, a deep
// chain. One transaction in eight fails after its ops and must leave no
// trace — it would if an op wrote through a shared node.
func TestHashTableMatchesMapOracle(t *testing.T) {
	rt := newRT()
	h := NewHashTable[int](16)
	const keys = 1200 // about half live at any time: ~37 per bucket
	ref := map[int64]int{}
	counted := 0 // what Len tracks: Insert successes minus Remove successes
	atomically(t, rt, func(tx *tl2.Tx) error {
		for k := int64(0); k < keys; k += 2 {
			h.InsertNoCount(tx, k, int(k))
			ref[k] = int(k)
		}
		return nil
	})
	rng := xrand.New(23)
	errDiscard := errors.New("discard")
	for step := 0; step < 3000; step++ {
		discard := rng.Intn(8) == 0
		m, cnt := ref, counted
		if discard {
			m = maps.Clone(ref)
		}
		err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				k := int64(rng.Intn(keys))
				old, exists := m[k]
				switch op := rng.Intn(16); op {
				case 0, 1, 2, 3:
					var got bool
					if op < 2 {
						got = h.Insert(tx, k, step)
					} else {
						got = h.InsertNoCount(tx, k, step)
					}
					if got == exists {
						t.Fatalf("step %d: insert(%d) = %v but exists = %v", step, k, got, exists)
					}
					if got {
						m[k] = step
						if op < 2 {
							cnt++
						}
					}
				case 4, 5:
					if got := h.Set(tx, k, -step); got != exists {
						t.Fatalf("step %d: Set(%d) = %v but exists = %v", step, k, got, exists)
					}
					if exists {
						m[k] = -step
					}
				case 6, 7:
					if v, ok := h.Get(tx, k); ok != exists || v != old {
						t.Fatalf("step %d: Get(%d) = %d,%v; ref %d,%v", step, k, v, ok, old, exists)
					}
				case 8:
					if got := h.Contains(tx, k); got != exists {
						t.Fatalf("step %d: Contains(%d) = %v, ref %v", step, k, got, exists)
					}
				case 9, 10, 11, 12:
					var got bool
					if op < 11 {
						got = h.Remove(tx, k)
					} else {
						got = h.RemoveNoCount(tx, k)
					}
					if got != exists {
						t.Fatalf("step %d: remove(%d) = %v but exists = %v", step, k, got, exists)
					}
					if got && op < 11 {
						cnt--
					}
					delete(m, k)
				case 13:
					if got := h.Len(tx); got != cnt {
						t.Fatalf("step %d: Len = %d, ref %d", step, got, cnt)
					}
				default:
					seen := make(map[int64]bool, len(m))
					h.RangeAll(tx, func(k int64, v int) bool {
						if rv, ok := m[k]; !ok || v != rv || seen[k] {
							t.Fatalf("step %d: RangeAll visited %d→%d (again: %v); ref %d,%v", step, k, v, seen[k], rv, ok)
						}
						seen[k] = true
						return true
					})
					if len(seen) != len(m) {
						t.Fatalf("step %d: RangeAll visited %d keys, ref %d", step, len(seen), len(m))
					}
				}
			}
			if discard {
				return errDiscard
			}
			return nil
		})
		if discard != (err != nil) {
			t.Fatalf("step %d: Atomic = %v, discard = %v", step, err, discard)
		}
		if !discard {
			counted = cnt
		}
	}
	if len(ref) < 500 {
		t.Fatalf("only %d live keys at the end: chains were not deep", len(ref))
	}
}

// TestHashTableBucketSnapshotsUnderWriters: writers move value between two
// keys deep in one bucket's chain, and toggle a third in front of them,
// while readers assert the pair's sum through Get and through RangeAll. A
// mutation that wrote through a shared node instead of path-copying it is a
// data race against those readers; one that published a bucket in two steps
// breaks the sum.
func TestHashTableBucketSnapshotsUnderWriters(t *testing.T) {
	rt := tl2.New(tl2.Config{Interleave: 4})
	h := NewHashTable[int](16)
	ks := bucketMates(h, 5)
	a, b, toggled := ks[0], ks[1], ks[4]
	const total = 1000
	atomically(t, rt, func(tx *tl2.Tx) error {
		h.Insert(tx, a, total)
		for _, k := range ks[1:4] { // b, then two bystanders in front of both
			h.Insert(tx, k, 0)
		}
		return nil
	})
	pairSum := func(tx *tl2.Tx) (byGet, byRange int) {
		va, _ := h.Get(tx, a)
		vb, _ := h.Get(tx, b)
		h.RangeAll(tx, func(k int64, v int) bool {
			if k == a || k == b {
				byRange += v
			}
			return true
		})
		return va + vb, byRange
	}
	const writers, readers, perWriter = 3, 2, 300
	var wg, rwg sync.WaitGroup
	var done atomic.Bool
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(id int) {
			defer rwg.Done()
			for !done.Load() {
				var byGet, byRange int
				if err := rt.Run(nil, txid.ThreadID(writers+id), 2, func(tx *tl2.Tx) error {
					byGet, byRange = pairSum(tx)
					return nil
				}, true, 0); err != nil {
					t.Errorf("read-only Run: %v", err)
					return
				}
				if byGet != total || byRange != total {
					t.Errorf("pair sum = %d by Get, %d by RangeAll; want %d", byGet, byRange, total)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.NewThread(17, id)
			for i := 0; i < perWriter; i++ {
				from, to, amt := a, b, rng.Intn(10)
				if rng.Intn(2) == 0 {
					from, to = b, a
				}
				flip := rng.Intn(3) == 0
				if err := rt.Atomic(txid.ThreadID(id), 0, func(tx *tl2.Tx) error {
					vf, _ := h.Get(tx, from)
					vt, _ := h.Get(tx, to)
					h.Set(tx, from, vf-amt)
					if flip && !h.Remove(tx, toggled) {
						h.Insert(tx, toggled, id)
					}
					h.Set(tx, to, vt+amt)
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	rwg.Wait()
	atomically(t, rt, func(tx *tl2.Tx) error {
		if byGet, byRange := pairSum(tx); byGet != total || byRange != total {
			t.Errorf("final pair sum = %d by Get, %d by RangeAll; want %d", byGet, byRange, total)
		}
		want := 4
		if h.Contains(tx, toggled) {
			want++
		}
		if got := h.Len(tx); got != want {
			t.Errorf("Len = %d, want %d", got, want)
		}
		return nil
	})
}

func TestMapSequentialOpsMatchReference(t *testing.T) {
	rt := newRT()
	m := NewMap[int]()
	ref := map[int64]int{}
	rng := xrand.New(7)
	atomically(t, rt, func(tx *tl2.Tx) error {
		for op := 0; op < 3000; op++ {
			k := int64(rng.Intn(200))
			switch rng.Intn(4) {
			case 0:
				got := m.Insert(tx, k, op)
				_, exists := ref[k]
				if got == exists {
					t.Fatalf("Insert(%d) = %v but exists = %v", k, got, exists)
				}
				if got {
					ref[k] = op
				}
			case 1:
				got := m.Remove(tx, k)
				_, exists := ref[k]
				if got != exists {
					t.Fatalf("Remove(%d) = %v but exists = %v", k, got, exists)
				}
				delete(ref, k)
			case 2:
				v, ok := m.Get(tx, k)
				rv, exists := ref[k]
				if ok != exists || (ok && v != rv) {
					t.Fatalf("Get(%d) = %d,%v; ref %d,%v", k, v, ok, rv, exists)
				}
			case 3:
				m.Upsert(tx, k, op)
				ref[k] = op
			}
		}
		if m.Len(tx) != len(ref) {
			t.Fatalf("Len = %d, ref %d", m.Len(tx), len(ref))
		}
		// In-order traversal yields ascending keys matching ref.
		var keys []int64
		m.Range(tx, func(k int64, v int) bool {
			if rv := ref[k]; v != rv {
				t.Fatalf("Range value for %d = %d, want %d", k, v, rv)
			}
			keys = append(keys, k)
			return true
		})
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Fatal("Range not in ascending order")
		}
		if len(keys) != len(ref) {
			t.Fatalf("Range visited %d, want %d", len(keys), len(ref))
		}
		return nil
	})
}

func TestQueueFIFO(t *testing.T) {
	rt := newRT()
	q := NewQueue[int]()
	atomically(t, rt, func(tx *tl2.Tx) error {
		if _, ok := q.Dequeue(tx); ok {
			t.Error("Dequeue on empty succeeded")
		}
		if !q.Empty(tx) {
			t.Error("new queue not empty")
		}
		for i := 0; i < 50; i++ {
			q.Enqueue(tx, i)
		}
		if q.Len(tx) != 50 {
			t.Errorf("Len = %d", q.Len(tx))
		}
		if v, ok := q.Peek(tx); !ok || v != 0 {
			t.Errorf("Peek = %d, %v", v, ok)
		}
		for i := 0; i < 50; i++ {
			v, ok := q.Dequeue(tx)
			if !ok || v != i {
				t.Fatalf("Dequeue #%d = %d, %v", i, v, ok)
			}
		}
		if !q.Empty(tx) {
			t.Error("queue not empty after draining")
		}
		// Tail must reset: enqueue after drain still works.
		q.Enqueue(tx, 99)
		if v, _ := q.Dequeue(tx); v != 99 {
			t.Error("enqueue after drain broken")
		}
		return nil
	})
}

func TestHeapOrdering(t *testing.T) {
	rt := newRT()
	h := NewHeap[int](64, func(a, b int) bool { return a < b })
	rng := xrand.New(11)
	var want []int
	atomically(t, rt, func(tx *tl2.Tx) error {
		if _, ok := h.Pop(tx); ok {
			t.Error("Pop on empty succeeded")
		}
		for i := 0; i < 50; i++ {
			v := rng.Intn(1000)
			want = append(want, v)
			if err := h.Push(tx, v); err != nil {
				t.Fatalf("Push: %v", err)
			}
		}
		if h.Len(tx) != 50 {
			t.Errorf("Len = %d", h.Len(tx))
		}
		sort.Ints(want)
		if v, ok := h.Peek(tx); !ok || v != want[0] {
			t.Errorf("Peek = %d, want %d", v, want[0])
		}
		for i, w := range want {
			v, ok := h.Pop(tx)
			if !ok || v != w {
				t.Fatalf("Pop #%d = %d, want %d", i, v, w)
			}
		}
		return nil
	})
}

func TestHeapCapacity(t *testing.T) {
	rt := newRT()
	h := NewHeap[int](2, func(a, b int) bool { return a < b })
	atomically(t, rt, func(tx *tl2.Tx) error {
		if err := h.Push(tx, 1); err != nil {
			t.Fatal(err)
		}
		if err := h.Push(tx, 2); err != nil {
			t.Fatal(err)
		}
		if err := h.Push(tx, 3); err != ErrHeapFull {
			t.Fatalf("err = %v, want ErrHeapFull", err)
		}
		return nil
	})
	if h.Cap() != 2 {
		t.Fatalf("Cap = %d", h.Cap())
	}
}

func TestConcurrentHashTableInserts(t *testing.T) {
	rt := tl2.New(tl2.Config{Interleave: 4})
	h := NewHashTable[int](32) // small: force bucket conflicts
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := int64(id*per + i)
				if err := rt.Atomic(txid.ThreadID(id), 0, func(tx *tl2.Tx) error {
					if !h.Insert(tx, k, id) {
						t.Errorf("Insert(%d) failed", k)
					}
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	atomically(t, rt, func(tx *tl2.Tx) error {
		if h.Len(tx) != workers*per {
			t.Errorf("Len = %d, want %d", h.Len(tx), workers*per)
		}
		return nil
	})
}

func TestConcurrentQueueTransfersEveryElementOnce(t *testing.T) {
	rt := tl2.New(tl2.Config{Interleave: 4})
	src := NewQueue[int]()
	dst := NewQueue[int]()
	const n = 400
	if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
		for i := 0; i < n; i++ {
			src.Enqueue(tx, i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				moved := false
				if err := rt.Atomic(txid.ThreadID(id), 1, func(tx *tl2.Tx) error {
					v, ok := src.Dequeue(tx)
					if !ok {
						return nil
					}
					dst.Enqueue(tx, v)
					moved = true
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
				if !moved {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int]bool, n)
	atomically(t, rt, func(tx *tl2.Tx) error {
		for {
			v, ok := dst.Dequeue(tx)
			if !ok {
				break
			}
			if seen[v] {
				t.Fatalf("element %d transferred twice", v)
			}
			seen[v] = true
		}
		return nil
	})
	if len(seen) != n {
		t.Fatalf("transferred %d elements, want %d", len(seen), n)
	}
}

func TestConcurrentMapMixedOps(t *testing.T) {
	rt := tl2.New(tl2.Config{Interleave: 4})
	m := NewMap[int]()
	const workers = 6
	var wg sync.WaitGroup
	var inserted [workers][]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.NewThread(99, id)
			for i := 0; i < 120; i++ {
				// Each worker owns a disjoint key range, so final content
				// is checkable; conflicts still happen on shared tree paths.
				k := int64(id*1000 + rng.Intn(200))
				_ = rt.Atomic(txid.ThreadID(id), 0, func(tx *tl2.Tx) error {
					if m.Insert(tx, k, id) {
						return nil
					}
					return nil
				})
				inserted[id] = append(inserted[id], k)
			}
		}(w)
	}
	wg.Wait()
	atomically(t, rt, func(tx *tl2.Tx) error {
		for id := range inserted {
			for _, k := range inserted[id] {
				v, ok := m.Get(tx, k)
				if !ok || v != id {
					t.Fatalf("Get(%d) = %d,%v; want %d,true", k, v, ok, id)
				}
			}
		}
		// Tree invariant: in-order traversal strictly ascending.
		prev := int64(-1)
		m.Range(tx, func(k int64, v int) bool {
			if k <= prev {
				t.Fatalf("BST invariant violated: %d after %d", k, prev)
			}
			prev = k
			return true
		})
		return nil
	})
}

func TestHeapConcurrentPushPop(t *testing.T) {
	rt := tl2.New(tl2.Config{Interleave: 4})
	h := NewHeap[int](4096, func(a, b int) bool { return a < b })
	const workers, per = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = rt.Atomic(txid.ThreadID(id), 0, func(tx *tl2.Tx) error {
					return h.Push(tx, id*per+i)
				})
			}
		}(w)
	}
	wg.Wait()
	atomically(t, rt, func(tx *tl2.Tx) error {
		if h.Len(tx) != workers*per {
			t.Fatalf("Len = %d", h.Len(tx))
		}
		prev := -1
		for {
			v, ok := h.Pop(tx)
			if !ok {
				break
			}
			if v < prev {
				t.Fatalf("heap order violated: %d after %d", v, prev)
			}
			prev = v
		}
		return nil
	})
}

func TestMapQuickInsertRemoveProperty(t *testing.T) {
	// Property: inserting a set of keys then removing a subset leaves
	// exactly the difference, regardless of order.
	rt := newRT()
	f := func(keys []int16, removeMask []bool) bool {
		m := NewMap[struct{}]()
		ref := map[int64]bool{}
		ok := true
		_ = rt.Atomic(0, 0, func(tx *tl2.Tx) error {
			for _, k := range keys {
				m.Insert(tx, int64(k), struct{}{})
				ref[int64(k)] = true
			}
			for i, k := range keys {
				if i < len(removeMask) && removeMask[i] {
					m.Remove(tx, int64(k))
					delete(ref, int64(k))
				}
			}
			if m.Len(tx) != len(ref) {
				ok = false
				return nil
			}
			for k := range ref {
				if !m.Contains(tx, k) {
					ok = false
					return nil
				}
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentListInsertRemoveDisjoint(t *testing.T) {
	rt := tl2.New(tl2.Config{Interleave: 4})
	l := NewList[int]()
	const workers, per = 4, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := int64(id * 1000)
			for i := 0; i < per; i++ {
				k := base + int64(i)
				_ = rt.Atomic(txid.ThreadID(id), 0, func(tx *tl2.Tx) error {
					l.Insert(tx, k, id)
					return nil
				})
			}
			// Remove every other key.
			for i := 0; i < per; i += 2 {
				k := base + int64(i)
				_ = rt.Atomic(txid.ThreadID(id), 1, func(tx *tl2.Tx) error {
					if !l.Remove(tx, k) {
						t.Errorf("Remove(%d) failed", k)
					}
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	atomically(t, rt, func(tx *tl2.Tx) error {
		if got, want := l.Len(tx), workers*per/2; got != want {
			t.Errorf("Len = %d, want %d", got, want)
		}
		for w := 0; w < workers; w++ {
			for i := 0; i < per; i++ {
				k := int64(w*1000 + i)
				want := i%2 == 1
				if got := l.Contains(tx, k); got != want {
					t.Errorf("Contains(%d) = %v, want %v", k, got, want)
				}
			}
		}
		return nil
	})
}

func TestHashTableGetSetConcurrentWithRemovals(t *testing.T) {
	rt := tl2.New(tl2.Config{Interleave: 4})
	h := NewHashTable[int](16)
	// Pre-populate.
	atomically(t, rt, func(tx *tl2.Tx) error {
		for i := int64(0); i < 64; i++ {
			h.Insert(tx, i, 0)
		}
		return nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.NewThread(3, id)
			for i := 0; i < 150; i++ {
				k := int64(rng.Intn(64))
				switch rng.Intn(3) {
				case 0:
					_ = rt.Atomic(txid.ThreadID(id), 0, func(tx *tl2.Tx) error {
						h.Set(tx, k, id+1)
						return nil
					})
				case 1:
					_ = rt.Atomic(txid.ThreadID(id), 1, func(tx *tl2.Tx) error {
						h.Remove(tx, k)
						return nil
					})
				default:
					_ = rt.Atomic(txid.ThreadID(id), 2, func(tx *tl2.Tx) error {
						h.Insert(tx, k, id+1)
						return nil
					})
				}
			}
		}(w)
	}
	wg.Wait()
	// Size counter must agree with an actual scan.
	atomically(t, rt, func(tx *tl2.Tx) error {
		count := 0
		h.RangeAll(tx, func(int64, int) bool {
			count++
			return true
		})
		if got := h.Len(tx); got != count {
			t.Errorf("Len = %d but scan found %d", got, count)
		}
		return nil
	})
}

func TestHeapStableUnderMixedConcurrentOps(t *testing.T) {
	rt := tl2.New(tl2.Config{Interleave: 4})
	h := NewHeap[int](1<<12, func(a, b int) bool { return a < b })
	var pushed, popped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.NewThread(5, id)
			for i := 0; i < 200; i++ {
				if rng.Intn(2) == 0 {
					_ = rt.Atomic(txid.ThreadID(id), 0, func(tx *tl2.Tx) error {
						if err := h.Push(tx, rng.Intn(1000)); err != nil {
							return err
						}
						return nil
					})
					pushed.Add(1)
				} else {
					got := false
					_ = rt.Atomic(txid.ThreadID(id), 1, func(tx *tl2.Tx) error {
						_, got = h.Pop(tx)
						return nil
					})
					if got {
						popped.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	atomically(t, rt, func(tx *tl2.Tx) error {
		if got, want := int64(h.Len(tx)), pushed.Load()-popped.Load(); got != want {
			t.Errorf("heap len %d, want pushed-popped %d", got, want)
		}
		// Remaining pops come out sorted (heap invariant held).
		prev := -1
		for {
			v, ok := h.Pop(tx)
			if !ok {
				break
			}
			if v < prev {
				t.Fatalf("heap invariant broken: %d after %d", v, prev)
			}
			prev = v
		}
		return nil
	})
}
