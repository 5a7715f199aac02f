package faultinject

import (
	"sync"
	"testing"

	"gstm/internal/libtm"
	"gstm/internal/tl2"
	"gstm/internal/txid"
)

func chaosIters(t *testing.T) int {
	if testing.Short() {
		return 60
	}
	return 300
}

// TestChaosTL2 hammers shared TL2 Vars from many goroutines while the
// injector spuriously aborts attempts and stretches the mid-commit locked
// window. Safety bar: the final sums are exact (no lost or duplicated
// increments), and a post-run sweep of every lock word finds nothing still
// locked.
func TestChaosTL2(t *testing.T) {
	t.Run("lazy", func(t *testing.T) {
		const workers = 8
		iters := chaosIters(t)
		rt := tl2.New(tl2.Config{})
		inj := New(Config{Seed: 0xC4A05, SpuriousAbortProb: 0.3, CommitDelayProb: 0.3, CommitDelayYields: 8})
		rt.SetFaultInjector(inj)

		vars := make([]*tl2.Var[int], 4)
		for i := range vars {
			vars[i] = tl2.NewVar(0)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					err := rt.Atomic(txid.ThreadID(w), txid.TxnID(i%1024), func(tx *tl2.Tx) error {
						// Touch two vars per txn so write sets overlap
						// across workers and commit-time locking orders
						// multiple locks under injected delays.
						a, b := vars[w%len(vars)], vars[(w+1)%len(vars)]
						tl2.Write(tx, a, tl2.Read(tx, a)+1)
						tl2.Write(tx, b, tl2.Read(tx, b)+1)
						return nil
					})
					if err != nil {
						t.Errorf("worker %d iter %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		total := 0
		for i, v := range vars {
			if _, locked := v.LockState(); locked {
				t.Errorf("var %d left locked after chaos run", i)
			}
			total += v.Peek()
		}
		if want := workers * iters * 2; total != want {
			t.Fatalf("lost updates under injected faults: total %d, want %d", total, want)
		}
		aborts, delays := inj.Counts()
		if aborts == 0 || delays == 0 {
			t.Fatalf("injector never fired (aborts=%d delays=%d): chaos run proves nothing", aborts, delays)
		}
		if _, engineAborts := rt.Stats(); engineAborts < aborts {
			t.Fatalf("engine counted %d aborts but injector forced %d", engineAborts, aborts)
		}
	})
}

// TestChaosLibTM is the LibTM equivalent: object-granularity engine with
// commit-time write locks, with a visible-reader sweep on top of the
// writer-lock sweep.
func TestChaosLibTM(t *testing.T) {
	t.Run("commit-time", func(t *testing.T) {
		const workers = 8
		iters := chaosIters(t)
		rt := libtm.New(libtm.Config{})
		inj := New(Config{Seed: 0x11B7, SpuriousAbortProb: 0.3, CommitDelayProb: 0.3})
		rt.SetFaultInjector(inj)

		objs := make([]*libtm.Obj[int], 4)
		for i := range objs {
			objs[i] = libtm.NewObj(0)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					err := rt.Atomic(txid.ThreadID(w), txid.TxnID(i%1024), func(tx *libtm.Tx) error {
						o := objs[(w+i)%len(objs)]
						libtm.Write(tx, o, libtm.Read(tx, o)+1)
						return nil
					})
					if err != nil {
						t.Errorf("worker %d iter %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}

		total := 0
		for i, o := range objs {
			if held, readers := o.LockState(); held || readers != 0 {
				t.Errorf("obj %d leaked after chaos run: writerHeld=%v readers=%d", i, held, readers)
			}
			total += o.Peek()
		}
		if want := workers * iters; total != want {
			t.Fatalf("lost updates under injected faults: total %d, want %d", total, want)
		}
		if aborts, _ := inj.Counts(); aborts == 0 {
			t.Fatal("injector never fired: chaos run proves nothing")
		}
	})
}

// TestChaosInstrumentationPlane degrades the measurement plane instead of
// the engine: a stalling event sink and a starving gate. The STM must keep
// making progress — only measurement latency may suffer.
func TestChaosInstrumentationPlane(t *testing.T) {
	const workers = 8
	iters := chaosIters(t)
	rt := tl2.New(tl2.Config{})
	sink := NewStallingSink(nil, 16)
	gate := NewStarvingGate(nil, 16)
	rt.SetSink(sink)
	rt.SetGate(gate)

	v := tl2.NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := rt.Atomic(txid.ThreadID(w), txid.TxnID(i%1024), func(tx *tl2.Tx) error {
					tl2.Write(tx, v, tl2.Read(tx, v)+1)
					return nil
				})
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := v.Peek(); got != workers*iters {
		t.Fatalf("final value %d, want %d", got, workers*iters)
	}
	if sink.Events() == 0 {
		t.Fatal("stalling sink saw no events")
	}
	if gate.Arrivals() == 0 {
		t.Fatal("starving gate saw no arrivals")
	}
	if _, locked := v.LockState(); locked {
		t.Fatal("lock leaked under degraded instrumentation")
	}
}
