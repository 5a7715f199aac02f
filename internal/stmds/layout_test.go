package stmds

import (
	"runtime"
	"testing"
	"unsafe"

	"gstm/internal/tl2"
)

// TestEntryLayout is the table's node layout gate: key, value and next,
// with no flag padding the node out to a fourth word.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(entry[uint64]{}); got != 24 {
		t.Fatalf("entry[uint64] is %d bytes, want 24 (key, value, next)", got)
	}
}

// TestHashTableLiveBytesPerKey gates what a stored key costs once the
// garbage is gone: at load factor 1 a table of n keys holds n 16-byte
// bucket cells and n 24-byte nodes (each bucket's head box plus the chain
// behind it), 40 B per key. The allowance on top is a constant — the
// table's header, its size and end cells, the runtime's pooled leftovers —
// not a per-key one.
func TestHashTableLiveBytesPerKey(t *testing.T) {
	const keys, perKey, allowance = 1 << 16, 40, 16 << 10
	rt := tl2.New(tl2.Config{PrivateClock: true, Label: "livebytes"})
	defer rt.Telemetry().Unregister()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := NewHashTable[uint64](keys)
	for k := int64(0); k < keys; k += 64 {
		if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
			for i := k; i < k+64; i++ {
				h.InsertNoCount(tx, i, uint64(i))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Two cycles: the first moves the pooled Tx to the pool's victim
	// cache, the second frees it.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if h.NumBuckets() != keys {
		t.Fatalf("NumBuckets = %d, want %d (load factor 1)", h.NumBuckets(), keys)
	}
	runtime.KeepAlive(h)
	t.Logf("%d B live for %d keys: %.2f B/key", live, keys, float64(live)/keys)
	if live > keys*perKey+allowance {
		t.Fatalf("table holds %d B live, %.2f B/key; want <= %d B/key + %d B", live, float64(live)/keys, perKey, allowance)
	}
}
