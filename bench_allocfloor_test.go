//go:build !race

// Allocation floors of the commit path, from the engine's Atomic up to the
// entry points the server calls — System.Run, Plan.Run and Router.RunMulti
// with the options the server passes. The race detector's sync.Pool drops
// Puts at random (a dropped pooled Tx is re-made inside the measured call),
// hence this file's build tag; CI's bench-smoke runs these gates without
// -race.
package gstm_test

import (
	"testing"

	"gstm"
	"gstm/internal/obs"
	"gstm/internal/shard"
	"gstm/internal/tl2"
)

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

// TestCrossShardCommitAllocFloor gates the whole Router.RunMulti call — the
// router's participant list, gstm's runtimes list and options, the engine's
// pooled participants, the prepare/exchange/publish commit — at its redo
// boxes: a two-shard transfer allocates exactly two (one per written
// location), a one-shard call exactly one. Everything else is pooled
// per-call scratch at each layer.
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

// TestSystemRunAllocFloor gates System.Run as the server calls it, options
// included: a read-only transaction with a span allocates nothing, a write
// with a span exactly its redo box. Options are plain values, so neither the
// option list nor the settings it resolves to may reach the heap.
func TestSystemRunAllocFloor(t *testing.T) {
	sys := gstm.NewSystem(gstm.Config{Threads: 1})
	x := gstm.NewVar[int64](0)
	var sp obs.Span
	read := func(tx *gstm.Tx) error {
		sinkI64 += gstm.Read(tx, x)
		return nil
	}
	if avg := testing.AllocsPerRun(200, func() {
		sp.Start(1, 0, 0, 0, 1, false, obs.Now())
		if err := sys.Run(nil, 0, 0, read, gstm.WithReadOnly(), gstm.WithSpan(&sp)); err != nil {
			t.Error(err)
		}
	}); avg != 0 {
		t.Errorf("System.Run read with WithReadOnly, WithSpan = %.2f allocs/op, want 0", avg)
	}
	write := func(tx *gstm.Tx) error {
		gstm.Write(tx, x, gstm.Read(tx, x)+1)
		return nil
	}
	if avg := testing.AllocsPerRun(200, func() {
		sp.Start(1, 0, 0, 0, 1, false, obs.Now())
		if err := sys.Run(nil, 0, 0, write, gstm.WithSpan(&sp)); err != nil {
			t.Error(err)
		}
	}); avg > 1 {
		t.Errorf("System.Run write with WithSpan = %.2f allocs/op, want <= 1 (the redo box)", avg)
	}
	if x.Peek() != 201 {
		t.Fatalf("x = %d, want 201", x.Peek())
	}
}

// TestPlanRunAllocFloor gates Plan.Run on a Get batch the way a server
// worker runs one: per-shard options through WithShardOptions, each shard's
// sub-transaction read-only and spanned. It allocates nothing.
func TestPlanRunAllocFloor(t *testing.T) {
	r := shard.New(shard.Config{Shards: 2, Threads: 1})
	defer r.Close()
	vars := []*gstm.Var[int64]{gstm.NewVar[int64](1), gstm.NewVar[int64](2)}
	spans := make([]obs.Span, 2)
	opts := make([][]gstm.TxOption, 2)
	for sh := range opts {
		opts[sh] = []gstm.TxOption{gstm.WithReadOnly(), gstm.WithSpan(&spans[sh])}
	}
	perShard := shard.WithShardOptions(func(sh int) []gstm.TxOption { return opts[sh] })
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	plan := r.NewPlan()
	key := func(i int) uint64 { return keys[i] }
	body := func(tx *gstm.Tx, sh int, idxs []int) error {
		sinkI64 += gstm.Read(tx, vars[sh]) * int64(len(idxs))
		return nil
	}
	if avg := testing.AllocsPerRun(200, func() {
		plan.Build(len(keys), key)
		for _, sh := range plan.Active() {
			spans[sh].Start(1, 0, uint8(sh), 0, len(plan.Group(sh)), false, obs.Now())
		}
		if !plan.Run(nil, 0, 0, body, perShard) {
			t.Error("Get batch failed")
		}
	}); avg != 0 {
		t.Errorf("Plan.Run Get batch with WithShardOptions = %.2f allocs/op, want 0", avg)
	}
	if len(plan.Active()) != 2 {
		t.Fatalf("batch touched %d shards, want 2", len(plan.Active()))
	}
}

// TestCrossShardSpanAllocFloor gates Router.RunMulti with a span attached,
// as the server runs an OpTxn: a two-shard transfer still allocates only its
// two redo boxes.
func TestCrossShardSpanAllocFloor(t *testing.T) {
	r := shard.New(shard.Config{Shards: 2, Threads: 1})
	defer r.Close()
	x, y := gstm.NewVar[int64](0), gstm.NewVar[int64](0) // homed on shards 0 and 1
	parts := []int{0, 1}
	transfer := func(m *shard.MultiTx) error {
		gstm.Write(m.On(0), x, gstm.Read(m.On(0), x)-1)
		gstm.Write(m.On(1), y, gstm.Read(m.On(1), y)+1)
		return nil
	}
	var sp obs.Span
	if avg := testing.AllocsPerRun(200, func() {
		sp.Start(1, 0, 0, 0, 2, false, obs.Now())
		if err := r.RunMulti(nil, parts, 0, 0, transfer, gstm.WithSpan(&sp)); err != nil {
			t.Error(err)
		}
	}); avg > 2 {
		t.Errorf("Router.RunMulti transfer with WithSpan = %.2f allocs/op, want <= 2 (the redo boxes)", avg)
	}
	if x.Peek() != -201 || y.Peek() != 201 {
		t.Fatalf("x=%d y=%d, want -201 and 201", x.Peek(), y.Peek())
	}
	if sp.Len() == 0 {
		t.Fatal("the span recorded no events")
	}
}
