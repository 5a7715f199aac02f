package tl2

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gstm/internal/txid"
)

// opacityFaults widens the cross-shard publish window: CommitDelay is a
// seeded function of (thread, attempt), so each writer holds the sweep
// between its two shards' publishes for its own number of yields. It never
// forces spurious aborts.
type opacityFaults struct{ seed uint64 }

func (opacityFaults) SpuriousAbort(txid.Pair, int) bool { return false }

func (f opacityFaults) CommitDelay(p txid.Pair, attempt int) int {
	return int(splitmix(f.seed^uint64(p.Thread)<<32^uint64(attempt)) % 12)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// TestCrossShardOpacity is the pinned search for a torn cross-shard
// observation — a transaction seeing one shard's half of a publish sweep
// and not the other's, which the commit must exclude without any shared
// word: three locations on two private-clock runtimes, x and a on A, y on
// B, and five threads.
//
//   - two cross-shard writers increment x and y together, so x == y in
//     every committed state;
//   - a single-shard copier on A sets a = x: a third commit whose output
//     chains one shard's half of a sweep to an older value on the other;
//   - two cross-shard read-only readers read x, y and a in a seeded
//     random order.
//
// Every body checks its invariants as soon as it has read them — writers
// x == y, the copier a <= x, readers x == y and a <= y — inside the
// attempt, so an attempt that would later abort still counts: this tests
// opacity, not just serializability. Interleave yields inside the bodies
// and the fault injector's CommitDelay yields between one participant's
// publish and the next, the window in which shard A already carries
// commitWV and shard B does not. Each seed fixes the read orders and the
// delays; the subtest name replays it.
//
// The test fails under each of three broken engines (checked by
// mutation): (1) publishAt releases its locks before its stores, so a
// location reads unlocked at commitWV with its old value; (2) commitMulti
// ticks the clocks before prepare takes the locks, so a reader can sample
// rv at or past commitWV and still read a location the sweep has not
// locked; (3) each participant samples its rv lazily, at its first read,
// instead of before the body runs.
func TestCrossShardOpacity(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { opacityRun(t, seed) })
	}
}

func opacityRun(t *testing.T, seed uint64) {
	const (
		writers   = 2
		readers   = 2
		perWriter = 1500
	)
	f := opacityFaults{seed: seed}
	rtA := New(Config{PrivateClock: true, Interleave: 2})
	rtB := New(Config{PrivateClock: true, Interleave: 2})
	rtA.SetFaultInjector(f)
	rtB.SetFaultInjector(f)
	rts := []*Runtime{rtA, rtB}
	x, a := NewVar[int64](0), NewVar[int64](0)
	y := NewVar[int64](0)

	var torn atomic.Int64
	report := func(who string, xv, yv, av int64) {
		if torn.Add(1) <= 3 {
			t.Errorf("seed %d: %s observed x=%d y=%d a=%d inside an attempt", seed, who, xv, yv, av)
		}
	}

	var wg sync.WaitGroup
	var writing atomic.Int32
	writing.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(thread txid.ThreadID) {
			defer wg.Done()
			defer writing.Add(-1)
			for i := 0; i < perWriter; i++ {
				if err := MultiRun(nil, rts, thread, 0, func(txs []*Tx) error {
					xv, yv := Read(txs[0], x), Read(txs[1], y)
					if xv != yv {
						report("writer", xv, yv, -1)
					}
					Write(txs[0], x, xv+1)
					Write(txs[1], y, yv+1)
					return nil
				}, RunOpts{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(txid.ThreadID(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for writing.Load() > 0 {
			if err := rtA.Atomic(writers, 1, func(tx *Tx) error {
				xv, av := Read(tx, x), Read(tx, a)
				if av > xv {
					report("copier", xv, -1, av)
				}
				Write(tx, a, xv)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(thread txid.ThreadID) {
			defer wg.Done()
			rng := splitmix(seed<<8 | uint64(thread))
			for writing.Load() > 0 {
				if err := MultiRun(nil, rts, thread, 2, func(txs []*Tx) error {
					rng = splitmix(rng)
					var xv, yv, av int64
					for _, loc := range opacityOrders[rng%uint64(len(opacityOrders))] {
						switch loc {
						case 'x':
							xv = Read(txs[0], x)
						case 'y':
							yv = Read(txs[1], y)
						case 'a':
							av = Read(txs[0], a)
						}
					}
					if xv != yv || av > yv {
						report("reader", xv, yv, av)
					}
					return nil
				}, RunOpts{ReadOnly: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(txid.ThreadID(writers + 1 + r))
	}
	wg.Wait()

	if got, want := x.Peek(), int64(writers*perWriter); got != want || y.Peek() != want {
		t.Fatalf("seed %d: final x=%d y=%d, want both %d", seed, got, y.Peek(), want)
	}
	if xa, xb := rtA.Telemetry().XShardCommits.Load(), rtB.Telemetry().XShardCommits.Load(); xa != xb || xa < writers*perWriter {
		t.Fatalf("seed %d: cross-shard commits A=%d B=%d, want equal and >= %d", seed, xa, xb, writers*perWriter)
	}
}

// opacityOrders are the six orders a reader may read x, y and a in.
var opacityOrders = [...]string{"xya", "xay", "yxa", "yax", "axy", "ayx"}
