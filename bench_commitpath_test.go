// Commit-path microbenchmarks and allocation gates: the write-set lookup
// fast path, global-clock contention, and the traced (sink-installed) commit
// discipline. The before/after record of the commit-path overhaul these
// benches guard is kept in EXPERIMENTS.md "Historical serving sweeps".
package gstm_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"gstm/internal/libtm"
	"gstm/internal/tl2"
	"gstm/internal/txid"
)

// BenchmarkWriteSetLookup times the buffered-write fast path: rewriting and
// re-reading locations already in the write set, the operations the
// small-vector set answers from its filter word plus a sorted lookup. Both
// regimes are covered: a set that fits the inline array and one that has
// spilled to the sorted heap slice. The whole loop runs inside one
// transaction so only lookups (never commits) are on the clock; allocs/op
// must report 0 (the redo boxes are updated in place).
func BenchmarkWriteSetLookup(b *testing.B) {
	for _, size := range []int{8, 64} {
		name := fmt.Sprintf("inline%d", size)
		if size > 8 {
			name = fmt.Sprintf("spill%d", size)
		}
		b.Run(name, func(b *testing.B) {
			rt := tl2.New(tl2.Config{})
			arr := tl2.NewArray[int](size)
			b.ReportAllocs()
			if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
				for j := 0; j < size; j++ {
					tl2.WriteAt(tx, arr, j, j)
				}
				b.ResetTimer()
				mask := size - 1
				for i := 0; i < b.N; i++ {
					j := i & mask
					tl2.WriteAt(tx, arr, j, i)
					if tl2.ReadAt(tx, arr, j) != i {
						b.Fatal("buffered read mismatch")
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkClockContention hammers the global version clock: worker
// goroutines committing to disjoint Vars, so the only shared write is the
// clock itself. The gv4_adoptions metric counts commits that resolved a
// failed clock CAS by adopting the winner's value (pass-on-failure) instead
// of retrying the RMW.
func BenchmarkClockContention(b *testing.B) {
	rt := tl2.New(tl2.Config{})
	rt.Telemetry().Reset()
	var tid atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		id := txid.ThreadID(tid.Add(1))
		v := tl2.NewVar(0)
		for pb.Next() {
			_ = rt.Atomic(id, 0, func(tx *tl2.Tx) error {
				tl2.Write(tx, v, tl2.Read(tx, v)+1)
				return nil
			})
		}
	})
	b.ReportMetric(float64(rt.Telemetry().ClockCASFallbacks.Load()), "gv4_adoptions")
}

// nopSink is an installed-but-trivial EventSink: its presence switches the
// commit path to the traced discipline (unique ticks, no elision), the mode
// guided execution and profiling run in.
type nopSink struct{}

func (nopSink) TxCommit(p txid.Pair, wv uint64, aborts int)                {}
func (nopSink) TxAbort(p txid.Pair, byWV uint64, by txid.Pair, known bool) {}

// BenchmarkTL2TracedReadWrite is BenchmarkTL2ReadWrite with a sink
// installed: the commit cost guided/profiled runs pay, including the
// mandatory unique clock tick.
func BenchmarkTL2TracedReadWrite(b *testing.B) {
	rt := tl2.New(tl2.Config{})
	rt.SetSink(nopSink{})
	v := tl2.NewVar(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(0, 0, func(tx *tl2.Tx) error {
			tl2.Write(tx, v, tl2.Read(tx, v)+1)
			return nil
		})
	}
}

// TestTL2WriteFastPathZeroAllocs is the hard allocation gate on the
// buffered-write fast path: a Write to an already-buffered location updates
// the redo box in place, and the paired Read answers from the write set, so
// neither may allocate. (The first write to a location allocates exactly
// the box that commit publishes; that is the floor for a write-back STM.)
func TestTL2WriteFastPathZeroAllocs(t *testing.T) {
	rt := tl2.New(tl2.Config{})
	arr := tl2.NewArray[int](16)
	if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
		for j := 0; j < 16; j++ {
			tl2.WriteAt(tx, arr, j, j)
		}
		if avg := testing.AllocsPerRun(200, func() {
			tl2.WriteAt(tx, arr, 5, 99)
			if tl2.ReadAt(tx, arr, 5) != 99 {
				t.Error("buffered read mismatch")
			}
		}); avg != 0 {
			t.Errorf("tl2 buffered Write+Read = %.2f allocs/op, want 0", avg)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleShardCommitAllocFloor gates the WHOLE single-shard
// transaction — begin, typed read and write, lock, validate, publish,
// release — now that one attempt loop serves single- and cross-shard
// transactions alike (the participant list, the exchanged-timestamp
// publish sweep). A read-only transaction must stay at zero allocations end
// to end; a write transaction at exactly one (the redo box its first write
// to the location allocates — the write-back floor, unchanged from before
// the cross-shard protocol existed). A transaction with one home shard
// runs over its pooled Tx's own one-element list and never takes the
// exchange path, so the multi-shard protocol's cost to the fast path has to
// stay exactly nothing.
func TestSingleShardCommitAllocFloor(t *testing.T) {
	rt := tl2.New(tl2.Config{})
	arr := tl2.NewArray[int64](64)
	var i int
	read := func(tx *tl2.Tx) error {
		sinkI64 += tl2.ReadAt(tx, arr, i&63)
		return nil
	}
	if avg := testing.AllocsPerRun(200, func() {
		i++
		if err := rt.Atomic(0, 0, read); err != nil {
			t.Error(err)
		}
	}); avg != 0 {
		t.Errorf("single-shard read-only commit loop = %.2f allocs/op, want 0", avg)
	}
	write := func(tx *tl2.Tx) error {
		v := tl2.ReadAt(tx, arr, i&63)
		tl2.WriteAt(tx, arr, i&63, v+1)
		return nil
	}
	if avg := testing.AllocsPerRun(200, func() {
		i++
		if err := rt.Atomic(0, 0, write); err != nil {
			t.Error(err)
		}
	}); avg > 1 {
		t.Errorf("single-shard write commit loop = %.2f allocs/op, want <= 1 (the redo box)", avg)
	}
}

var sinkI64 int64

// TestLibTMWriteFastPathZeroAllocs: same gate for the libtm engine, which
// shares the write-set structure.
func TestLibTMWriteFastPathZeroAllocs(t *testing.T) {
	rt := libtm.New(libtm.Config{})
	objs := make([]*libtm.Obj[int], 16)
	for i := range objs {
		objs[i] = libtm.NewObj(i)
	}
	if err := rt.Atomic(0, 0, func(tx *libtm.Tx) error {
		for j, o := range objs {
			libtm.Write(tx, o, j)
		}
		if avg := testing.AllocsPerRun(200, func() {
			libtm.Write(tx, objs[5], 99)
			if libtm.Read(tx, objs[5]) != 99 {
				t.Error("buffered read mismatch")
			}
		}); avg != 0 {
			t.Errorf("libtm buffered Write+Read = %.2f allocs/op, want 0", avg)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
