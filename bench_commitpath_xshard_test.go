//go:build !race

package gstm_test

import (
	"testing"

	"gstm"
	"gstm/internal/shard"
)

// TestCrossShardCommitAllocFloor gates the whole Router.RunMulti call — the
// router's participant list, gstm's runtimes list and options, the engine's
// pooled participants, the prepare/exchange/publish commit — at its redo
// boxes: a two-shard transfer allocates exactly two (one per written
// location), a one-shard call exactly one. Everything else is pooled
// per-call scratch at each layer. The race detector's sync.Pool drops Puts
// at random, hence this file's build tag; CI's bench-smoke runs it beside
// TestSingleShardCommitAllocFloor.
func TestCrossShardCommitAllocFloor(t *testing.T) {
	r := shard.New(shard.Config{Shards: 2, Threads: 1})
	defer r.Close()
	x, y := gstm.NewVar[int64](0), gstm.NewVar[int64](0) // homed on shards 0 and 1
	two, one := []int{1, 0}, []int{0}
	transfer := func(m *shard.MultiTx) error {
		gstm.Write(m.On(0), x, gstm.Read(m.On(0), x)-1)
		gstm.Write(m.On(1), y, gstm.Read(m.On(1), y)+1)
		return nil
	}
	add := func(m *shard.MultiTx) error {
		gstm.Write(m.On(0), x, gstm.Read(m.On(0), x)+1)
		return nil
	}
	for _, c := range []struct {
		name   string
		shards []int
		body   func(*shard.MultiTx) error
		boxes  float64
	}{{"two-shard transfer", two, transfer, 2}, {"one-shard add", one, add, 1}} {
		if avg := testing.AllocsPerRun(200, func() {
			if err := r.RunMulti(nil, c.shards, 0, 0, c.body); err != nil {
				t.Error(err)
			}
		}); avg > c.boxes {
			t.Errorf("%s via Router.RunMulti = %.2f allocs/op, want <= %.0f (the redo boxes)", c.name, avg, c.boxes)
		}
	}
	// Each case ran 201 times (AllocsPerRun warms up once): the transfers
	// moved 201 from x to y, and the adds put it back on x.
	if x.Peek() != 0 || y.Peek() != 201 {
		t.Fatalf("x=%d y=%d, want 0 and 201", x.Peek(), y.Peek())
	}
}
