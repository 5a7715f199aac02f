package tl2

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gstm/internal/check"
	"gstm/internal/faultinject"
	"gstm/internal/txid"
	"gstm/internal/xrand"
)

// TestCrossShardOpacity generates histories that would show a torn cross-shard
// read, half of a publish sweep, and check.Opacity decides every attempt. Two
// private-clock runtimes hold x and a on A, y on B. Two writers each commit
// x, y = x+1, y+1 1500 times; a copier on A reads x and writes its copy count
// to a, chaining one shard's half of a sweep to the other; two readers read
// all three in seeded orders until the writers finish. Interleave, and
// CommitDelay between publishes, widen the window. No small-model theorem
// covers every STM (Wehrheim): these sizes are a search budget, not a proof.
func TestCrossShardOpacity(t *testing.T) {
	const writers, readers, perWriter, x, y, a = 2, 2, 1500, 0, 1, 2
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := faultinject.New(faultinject.Config{Seed: seed, CommitDelayProb: 0.5, CommitDelayYields: 6})
			rts := []*Runtime{New(Config{PrivateClock: true, Interleave: 2}), New(Config{PrivateClock: true, Interleave: 2})}
			rts[0].SetFaultInjector(f)
			rts[1].SetFaultInjector(f)
			vars, home := [3]*Var[int64]{NewVar[int64](0), NewVar[int64](0), NewVar[int64](0)}, [3]int{0, 1, 0}
			recs := make([]check.Recorder, writers+1+readers) // one per thread
			read := func(rec *check.Recorder, txs []*Tx, loc int) int64 {
				return rec.Read(loc, Read(txs[home[loc]], vars[loc]))
			}
			var wg sync.WaitGroup
			var writing atomic.Int32
			writing.Store(writers)
			// spawn runs th's transaction over on n times, or with n == 0 until
			// the writers finish; call i is txn i, so it rolls its own CommitDelay.
			spawn := func(th txid.ThreadID, n int64, on []*Runtime, o RunOpts, body func(*check.Recorder, []*Tx, int64)) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if n > 0 {
						defer writing.Add(-1)
					}
					rec := &recs[th]
					for i := int64(1); i <= n || n == 0 && writing.Load() > 0; i++ {
						if err := rec.Done(MultiRun(nil, on, th, txid.TxnID(i), func(txs []*Tx) error {
							rec.Begin()
							body(rec, txs, i)
							return nil
						}, o)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for w := range txid.ThreadID(writers) {
				spawn(w, perWriter, rts, RunOpts{}, func(rec *check.Recorder, txs []*Tx, _ int64) {
					xv, yv := read(rec, txs, x), read(rec, txs, y)
					Write(txs[0], vars[x], rec.Write(x, xv+1))
					Write(txs[1], vars[y], rec.Write(y, yv+1))
				})
			}
			spawn(writers, 0, rts[:1], RunOpts{}, func(rec *check.Recorder, txs []*Tx, i int64) {
				read(rec, txs, x)
				read(rec, txs, a)
				Write(txs[0], vars[a], rec.Write(a, i))
			})
			for th := txid.ThreadID(writers + 1); th < writers+1+readers; th++ {
				rng := xrand.NewThread(seed, int(th))
				spawn(th, 0, rts, RunOpts{ReadOnly: true}, func(rec *check.Recorder, txs []*Tx, _ int64) {
					for _, loc := range rng.Perm(3) {
						read(rec, txs, loc)
					}
				})
			}
			wg.Wait()
			if err := check.Opacity(recs...); err != nil {
				t.Fatal(err)
			}
		})
	}
}
