// Typed hot-path microbenchmarks and allocation gates for the unboxed
// slot protocol and the striped lock table. The zero-alloc tests are
// CI-gated; the engine sweep these benches once backed is kept as history
// in EXPERIMENTS.md "Historical serving sweeps".
package gstm_test

import (
	"fmt"
	"testing"

	"gstm/internal/tl2"
)

// BenchmarkTypedReadWrite times the unboxed protocol's two hottest
// operations: a transactional read on the read-only fast path, and an
// in-place rewrite of an already-buffered location — one raw pointer
// moved per access. The whole loop runs inside one transaction so access
// cost, not commit cost, is on the clock.
func BenchmarkTypedReadWrite(b *testing.B) {
	const cells = 1024
	b.Run("unboxed-read", func(b *testing.B) {
		rt := tl2.New(tl2.Config{})
		arr := tl2.NewArray[int64](cells)
		b.ReportAllocs()
		var sum int64
		if err := rt.AtomicRO(0, 0, func(tx *tl2.Tx) error {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += tl2.ReadAt(tx, arr, i&(cells-1))
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		sinkVal = sum
	})
	b.Run("unboxed-rewrite", func(b *testing.B) {
		rt := tl2.New(tl2.Config{})
		arr := tl2.NewArray[int64](16)
		b.ReportAllocs()
		if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
			for j := 0; j < 16; j++ {
				tl2.WriteAt(tx, arr, j, int64(j))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & 15
				tl2.WriteAt(tx, arr, j, int64(i))
				if tl2.ReadAt(tx, arr, j) != int64(i) {
					b.Fatal("buffered read mismatch")
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	})
}

var sinkVal int64 // defeats dead-code elimination of benchmark read loops

// BenchmarkStripedArraySweep compares lock-table modes on short array
// transactions: per-location lock words against striped tables at two
// densities (256 stripes ≈ rare aliasing, 2 stripes = constant aliasing).
// Each iteration is one whole transaction — 8 reads on the read-only path
// or 8 writes through commit — so the striped write numbers include the
// stripe dedup and sorted-acquisition work.
func BenchmarkStripedArraySweep(b *testing.B) {
	const cells = 4096
	for _, mode := range []struct {
		name    string
		stripes int
	}{
		{"per-location", 0},
		{"striped-256", 256},
		{"striped-2", 2},
	} {
		rt := tl2.New(tl2.Config{LockStripes: mode.stripes, PrivateClock: true})
		arr := tl2.NewArray[int64](cells)
		b.Run(fmt.Sprintf("%s/read", mode.name), func(b *testing.B) {
			b.ReportAllocs()
			var sum int64
			for i := 0; i < b.N; i++ {
				base := i * 8
				if err := rt.AtomicRO(0, 0, func(tx *tl2.Tx) error {
					for k := 0; k < 8; k++ {
						sum += tl2.ReadAt(tx, arr, (base+k*511)&(cells-1))
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			sinkVal = sum
		})
		b.Run(fmt.Sprintf("%s/write", mode.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base := i * 8
				if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
					for k := 0; k < 8; k++ {
						tl2.WriteAt(tx, arr, (base+k*511)&(cells-1), int64(i))
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTypedReadWriteZeroAllocs is the allocation gate on the unboxed typed
// hot path: a read on the read-only fast path (no read-set append, one
// pointer load and deref) and a buffered rewrite (in-place redo-box
// update) must both run without a single allocation.
func TestTypedReadWriteZeroAllocs(t *testing.T) {
	rt := tl2.New(tl2.Config{})
	arr := tl2.NewArray[int64](64)
	if err := rt.AtomicRO(0, 0, func(tx *tl2.Tx) error {
		var sum int64
		if avg := testing.AllocsPerRun(200, func() {
			for j := 0; j < 64; j++ {
				sum += tl2.ReadAt(tx, arr, j)
			}
		}); avg != 0 {
			t.Errorf("typed read-only sweep = %.2f allocs/op, want 0", avg)
		}
		sinkVal = sum
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
		for j := 0; j < 16; j++ {
			tl2.WriteAt(tx, arr, j, int64(j))
		}
		if avg := testing.AllocsPerRun(200, func() {
			tl2.WriteAt(tx, arr, 7, 99)
			if tl2.ReadAt(tx, arr, 7) != 99 {
				t.Error("buffered read mismatch")
			}
		}); avg != 0 {
			t.Errorf("typed buffered rewrite = %.2f allocs/op, want 0", avg)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStripedArraySweepZeroAllocs is the same gate on a striped runtime:
// hashing addresses onto the stripe table must not add an allocation to
// either the read-only sweep or the buffered rewrite.
func TestStripedArraySweepZeroAllocs(t *testing.T) {
	rt := tl2.New(tl2.Config{LockStripes: 256, PrivateClock: true})
	arr := tl2.NewArray[int64](64)
	if err := rt.AtomicRO(0, 0, func(tx *tl2.Tx) error {
		var sum int64
		if avg := testing.AllocsPerRun(200, func() {
			for j := 0; j < 64; j++ {
				sum += tl2.ReadAt(tx, arr, j)
			}
		}); avg != 0 {
			t.Errorf("striped read-only sweep = %.2f allocs/op, want 0", avg)
		}
		sinkVal = sum
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
		for j := 0; j < 16; j++ {
			tl2.WriteAt(tx, arr, j, int64(j))
		}
		if avg := testing.AllocsPerRun(200, func() {
			tl2.WriteAt(tx, arr, 7, 99)
			if tl2.ReadAt(tx, arr, 7) != 99 {
				t.Error("buffered read mismatch")
			}
		}); avg != 0 {
			t.Errorf("striped buffered rewrite = %.2f allocs/op, want 0", avg)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
