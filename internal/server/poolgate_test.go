//go:build !race

package server

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
)

// TestChunkPoolGate is the allocation gate run by CI's bench-smoke: once a
// burst has warmed the pools, dispatching constructs no chunk and no
// transaction body, and a recycled chunk keeps its task array. One P and no
// GC make the pools deterministic (a Put on another P's private slot, or a
// collection, hides entries); the race detector's pool drops Puts at
// random, hence this file's build tag.
func TestChunkPoolGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC() // two collections empty the pool of what earlier tests
	runtime.GC() // left: every chunk seen below was built and filled here
	var built, bodies atomic.Int64
	inner, innerTxn := chunkPool.New, txnPool.New
	chunkPool.New = func() any { built.Add(1); return inner() }
	txnPool.New = func() any { bodies.Add(1); return innerTxn() }
	defer func() { chunkPool.New, txnPool.New = inner, innerTxn }()

	s := startServer(t, Config{Workers: 2, Unguided: true})
	fc := attach(s)
	// 16 requests: Gets with a transfer after every third.
	var burst []byte
	for id := uint32(1); id <= 16; id++ {
		if id%4 == 0 {
			burst = AppendTxnRequest(burst, Request{Op: OpTxn, ID: id}, []TxnOp{
				{Op: OpAdd, Key: uint64(id), Arg: ^uint64(0)}, {Op: OpAdd, Key: uint64(id) + 1, Arg: 1}})
			continue
		}
		burst = append(burst, gets(id, uint64(id))...)
	}
	fc.in <- burst
	fc.await(t, 16)
	warm, warmBodies := built.Load(), bodies.Load()
	for i := 2; i <= 1001; i++ {
		fc.in <- burst
		fc.await(t, 16*i)
	}
	if got := built.Load() - warm; got != 0 {
		t.Fatalf("%d chunks constructed by 1000 bursts after the warm-up (which built %d)", got, warm)
	}
	if got := bodies.Load() - warmBodies; got != 0 {
		t.Fatalf("%d transaction bodies constructed by 1000 bursts after the warm-up (which built %d)", got, warmBodies)
	}
	fc.blocked() // the reader is idle: every chunk is back in the pool
	if ch := chunkPool.Get().(*chunk); len(ch.tasks) != 0 || cap(ch.tasks) < s.cfg.Batch {
		t.Fatalf("recycled chunk has len %d cap %d, want empty with room for a Batch of %d",
			len(ch.tasks), cap(ch.tasks), s.cfg.Batch)
	}
}
