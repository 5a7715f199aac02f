//go:build !race

package server

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
)

// TestChunkPoolGate is the allocation gate run by CI's bench-smoke: once a
// burst has warmed the pool, dispatching constructs no chunk, and a recycled
// chunk keeps its task array. One P and no GC make the pool deterministic
// (a Put on another P's private slot, or a collection, hides chunks); the
// race detector's pool drops Puts at random, hence this file's build tag.
func TestChunkPoolGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC() // two collections empty the pool of what earlier tests
	runtime.GC() // left: every chunk seen below was built and filled here
	var built atomic.Int64
	inner := chunkPool.New
	chunkPool.New = func() any { built.Add(1); return inner() }
	defer func() { chunkPool.New = inner }()

	s := startServer(t, Config{Workers: 2, Unguided: true})
	fc := attach(s)
	burst := gets(1, seq(1, 16)...)
	fc.in <- burst
	fc.await(t, 16)
	warm := built.Load()
	for i := 2; i <= 1001; i++ {
		fc.in <- burst
		fc.await(t, 16*i)
	}
	if got := built.Load() - warm; got != 0 {
		t.Fatalf("%d chunks constructed by 1000 bursts after the warm-up (which built %d)", got, warm)
	}
	fc.blocked() // the reader is idle: every chunk is back in the pool
	if ch := chunkPool.Get().(*chunk); len(ch.tasks) != 0 || cap(ch.tasks) < s.cfg.Batch {
		t.Fatalf("recycled chunk has len %d cap %d, want empty with room for a Batch of %d",
			len(ch.tasks), cap(ch.tasks), s.cfg.Batch)
	}
}
