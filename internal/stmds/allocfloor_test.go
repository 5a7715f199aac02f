//go:build !race

package stmds

import (
	"testing"

	"gstm/internal/tl2"
)

// TestHashTableAllocFloor pins the table's allocation floor at load factor
// <= 1: lookups allocate nothing, and a mutation that changes a chain's head
// allocates only the redo box tl2.Write publishes. The race detector's
// sync.Pool drops Puts at random — a dropped pooled Tx or read set is then
// re-made inside the measured call — hence this file's build tag; CI's
// bench-smoke runs the gate without -race.
func TestHashTableAllocFloor(t *testing.T) {
	rt := newRT()
	h := NewHashTable[int64](1 << 12)
	mates := bucketMates(h, 3) // mates[2] heads a chain of three
	// Keys for one insert per run, each into a bucket of its own.
	taken := map[*tl2.Var[entry[int64]]]bool{h.cell(0): true}
	var fresh []int64
	for k := int64(1); len(fresh) < 256; k++ {
		if c := h.cell(k); !taken[c] {
			taken[c] = true
			fresh = append(fresh, k)
		}
	}
	atomically(t, rt, func(tx *tl2.Tx) error {
		for _, k := range mates {
			h.InsertNoCount(tx, k, k)
		}
		return nil
	})
	var i int
	var sink int64
	measure := func(name string, want float64, fn func(tx *tl2.Tx) error) {
		t.Helper()
		if avg := testing.AllocsPerRun(200, func() {
			i++
			if err := rt.Atomic(0, 0, fn); err != nil {
				t.Error(err)
			}
		}); avg != want {
			t.Errorf("%s = %.2f allocs/op, want %.0f", name, avg, want)
		}
	}
	measure("Get at the chain's end", 0, func(tx *tl2.Tx) error {
		v, _ := h.Get(tx, mates[0])
		sink += v
		return nil
	})
	measure("Contains", 0, func(tx *tl2.Tx) error {
		if !h.Contains(tx, mates[1]) || h.Contains(tx, fresh[0]) {
			t.Error("Contains wrong")
		}
		return nil
	})
	measure("Set on a chain head", 1, func(tx *tl2.Tx) error {
		h.Set(tx, mates[2], int64(i))
		return nil
	})
	i = 0
	measure("InsertNoCount into an empty bucket", 1, func(tx *tl2.Tx) error {
		if !h.InsertNoCount(tx, fresh[i], 1) {
			t.Errorf("InsertNoCount(%d) found the key", fresh[i])
		}
		return nil
	})
}
