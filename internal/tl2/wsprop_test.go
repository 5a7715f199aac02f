package tl2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestWriteSetMatchesMapOracle is the engine-level equivalence property for
// the small-vector write set: a single-threaded transaction driving random
// Read/Write sequences must observe exactly the semantics of the old
// map[*base]any buffer — last write wins, reads-after-writes see the buffer,
// unwritten locations see their committed values, and commit publishes the
// final buffered value of every written location and nothing else.
func TestWriteSetMatchesMapOracle(t *testing.T) {
	type op struct {
		Kind uint8
		Idx  uint8
		Val  int16
	}
	const n = 24 // enough locations to cross the inline→spill boundary
	run := func(ops []op) bool {
		rt := New(Config{})
		arr := NewArray[int](n)
		for i := 0; i < n; i++ {
			arr.Reset(i, i*100)
		}
		model := make(map[int]int) // the map-oracle: pending writes by index
		if err := rt.Atomic(0, 0, func(tx *Tx) error {
			for _, o := range ops {
				i := int(o.Idx) % n
				switch o.Kind % 3 {
				case 0: // read through both entry points
					var got int
					if o.Val%2 == 0 {
						got = ReadAt(tx, arr, i)
					} else {
						got = Read(tx, arr.At(i))
					}
					want, buffered := model[i]
					if !buffered {
						want = i * 100
					}
					if got != want {
						t.Errorf("read[%d] = %d, oracle %d (buffered=%v)", i, got, want, buffered)
					}
				default: // write (biased 2:1, matching write-heavy paths)
					if o.Val%2 == 0 {
						WriteAt(tx, arr, i, int(o.Val))
					} else {
						Write(tx, arr.At(i), int(o.Val))
					}
					model[i] = int(o.Val)
				}
			}
			return nil
		}); err != nil {
			t.Errorf("atomic failed: %v", err)
			return false
		}
		for i := 0; i < n; i++ {
			want, written := model[i]
			if !written {
				want = i * 100
			}
			if got := arr.Peek(i); got != want {
				t.Errorf("post-commit arr[%d] = %d, oracle %d (written=%v)", i, got, want, written)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(0x5eed)),
		Values:   nil,
	}
	if err := quick.Check(run, cfg); err != nil {
		t.Fatal(err)
	}
}
