package tl2

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/obs"
)

// TestRetryWithoutBlockReturnsErrWouldBlock: outside blocking mode a
// Retry must surface as the sentinel, not spin or park.
func TestRetryWithoutBlockReturnsErrWouldBlock(t *testing.T) {
	rt := New(Config{})
	v := NewVar(0)
	err := rt.Atomic(0, 0, func(tx *Tx) error {
		if Read(tx, v) == 0 {
			tx.Retry()
		}
		return nil
	})
	if !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("got %v, want ErrWouldBlock", err)
	}
}

// TestRetryEmptyReadSetWouldBlock: a Retry before any read can never be
// woken, so even blocking mode must refuse to park.
func TestRetryEmptyReadSetWouldBlock(t *testing.T) {
	rt := New(Config{})
	err := rt.RunOpt(nil, 0, 0, func(tx *Tx) error {
		tx.Retry()
		return nil
	}, RunOpts{Block: true})
	if !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("got %v, want ErrWouldBlock", err)
	}
}

// TestRetryParksUntilCommit: the blocked consumer must wake on the
// producer's commit — no polling, one park — and the park must be stamped
// on the span (PhasePark/CauseWakeup) and the parked counter.
func TestRetryParksUntilCommit(t *testing.T) {
	rt := New(Config{})
	v := NewVar(0)
	parked0 := rt.Telemetry().Snapshot().Parked

	var sp obs.Span
	sp.Start(1, 0, 0, 0, 1, true, time.Now().UnixNano())
	got := make(chan int, 1)
	go func() {
		var out int
		err := rt.RunOpt(nil, 0, 0, func(tx *Tx) error {
			out = Read(tx, v)
			if out == 0 {
				tx.Retry()
			}
			return nil
		}, RunOpts{Block: true, Span: &sp})
		if err != nil {
			t.Error(err)
		}
		got <- out
	}()

	// Wait for the real park (the telemetry counter ticks after waiter
	// registration and validation, just before the sleep).
	deadline := time.Now().Add(5 * time.Second)
	for rt.Telemetry().Snapshot().Parked == parked0 {
		if time.Now().After(deadline) {
			t.Fatal("consumer never parked")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case out := <-got:
		t.Fatalf("consumer returned %d before the producer committed", out)
	default:
	}

	if err := rt.Atomic(1, 1, func(tx *Tx) error {
		Write(tx, v, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-got:
		if out != 7 {
			t.Fatalf("consumer read %d, want 7", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer did not wake on the producer's commit")
	}

	sp.Finish(obs.CauseNone, time.Now().UnixNano())
	found := false
	for _, ev := range sp.Events() {
		if ev.Phase == obs.PhasePark && ev.Cause == obs.CauseWakeup {
			found = true
		}
	}
	if !found {
		t.Fatal("span has no park event with cause wakeup")
	}
}

// TestBlockCtxCancelEndsPark: a canceled park context must resolve the
// park with ErrCanceled wrapping the context error.
func TestBlockCtxCancelEndsPark(t *testing.T) {
	rt := New(Config{})
	v := NewVar(0)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- rt.RunOpt(nil, 0, 0, func(tx *Tx) error {
			if Read(tx, v) == 0 {
				tx.Retry()
			}
			return nil
		}, RunOpts{Block: true, BlockCtx: ctx})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Telemetry().Snapshot().Parked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not end the park")
	}
}

// TestSelectFirstReadyWins: alternatives are tried in order; the first
// that does not Retry decides the transaction.
func TestSelectFirstReadyWins(t *testing.T) {
	rt := New(Config{})
	a, b := NewVar(0), NewVar(5)
	var from string
	err := rt.Atomic(0, 0, Select(
		func(tx *Tx) error {
			if Read(tx, a) == 0 {
				tx.Retry()
			}
			from = "a"
			return nil
		},
		func(tx *Tx) error {
			if Read(tx, b) == 0 {
				tx.Retry()
			}
			from = "b"
			return nil
		},
	))
	if err != nil {
		t.Fatal(err)
	}
	if from != "b" {
		t.Fatalf("selected %q, want b (a retried, b was ready)", from)
	}
}

// TestSelectAllRetryParksOnUnion: when every alternative retries, the
// transaction parks on the union of their reads — a commit enabling the
// second alternative must wake it.
func TestSelectAllRetryParksOnUnion(t *testing.T) {
	rt := New(Config{})
	a, b := NewVar(0), NewVar(0)
	got := make(chan string, 1)
	go func() {
		var from string
		err := rt.RunOpt(nil, 0, 0, Select(
			func(tx *Tx) error {
				if Read(tx, a) == 0 {
					tx.Retry()
				}
				from = "a"
				return nil
			},
			func(tx *Tx) error {
				if Read(tx, b) == 0 {
					tx.Retry()
				}
				from = "b"
				return nil
			},
		), RunOpts{Block: true})
		if err != nil {
			t.Error(err)
		}
		got <- from
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Telemetry().Snapshot().Parked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := rt.Atomic(1, 1, func(tx *Tx) error {
		Write(tx, b, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case from := <-got:
		if from != "b" {
			t.Fatalf("woke into %q, want b", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit on the second alternative's read did not wake the select")
	}
}

// TestComposeChainsAtomically: Compose runs its parts in order inside one
// transaction and stops at the first error.
func TestComposeChainsAtomically(t *testing.T) {
	rt := New(Config{})
	a, b := NewVar(0), NewVar(0)
	if err := rt.Atomic(0, 0, Compose(
		func(tx *Tx) error { Write(tx, a, 1); return nil },
		func(tx *Tx) error { Write(tx, b, Read(tx, a)+1); return nil },
	)); err != nil {
		t.Fatal(err)
	}
	var ga, gb int
	_ = rt.Run(nil, 0, 0, func(tx *Tx) error { ga, gb = Read(tx, a), Read(tx, b); return nil }, true, 0)
	if ga != 1 || gb != 2 {
		t.Fatalf("composed state = (%d,%d), want (1,2)", ga, gb)
	}

	boom := errors.New("boom")
	ran := false
	err := rt.Atomic(0, 0, Compose(
		func(tx *Tx) error { Write(tx, a, 99); return boom },
		func(tx *Tx) error { ran = true; return nil },
	))
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if ran {
		t.Fatal("Compose ran past a failing part")
	}
	_ = rt.Run(nil, 0, 0, func(tx *Tx) error { ga = Read(tx, a); return nil }, true, 0)
	if ga != 1 {
		t.Fatalf("failed composition published a write: a = %d, want 1", ga)
	}
}

// TestSelectConflictStillRetries: a real conflict inside an alternative
// must propagate through Select's recover (engine retry, not orElse).
func TestSelectConflictStillRetries(t *testing.T) {
	rt := New(Config{Interleave: 2})
	v := NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := rt.Atomic(0, 0, Select(func(tx *Tx) error {
					Write(tx, v, Read(tx, v)+1)
					return nil
				})); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var got int
	_ = rt.Run(nil, 0, 0, func(tx *Tx) error { got = Read(tx, v); return nil }, true, 0)
	if got != 800 {
		t.Fatalf("counter = %d, want 800 (conflicts lost under Select)", got)
	}
}

// TestBlockingFastPathZeroAllocs is CI bench-smoke's gate on the waiter
// machinery's cost to transactions that never park: enabling blocking on
// a Run whose body finds its data must not allocate, and neither may the
// commit-side waiter check of a non-blocking writer.
func TestBlockingFastPathZeroAllocs(t *testing.T) {
	rt := New(Config{})
	v := NewVar(1)
	sel := Select(func(tx *Tx) error {
		if Read(tx, v) == 0 {
			tx.Retry()
		}
		return nil
	})
	if avg := testing.AllocsPerRun(200, func() {
		if err := rt.RunOpt(nil, 0, 0, sel, RunOpts{Block: true}); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("non-parking blocking Run = %.2f allocs/op, want 0", avg)
	}
	// A full write commit allocates exactly its redo box (first write to a
	// location, see Write) — pinning the total at 1 proves the commit-time
	// waiter walk (wakeWaiters nil-check per written base) adds nothing.
	inc := func(tx *Tx) error {
		Write(tx, v, Read(tx, v)+1)
		return nil
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := rt.Atomic(0, 0, inc); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("writer commit with waiter check = %.2f allocs/op, want <= 1 (the redo box)", avg)
	}
}

// BenchmarkParkWake measures one full park/wake handoff: an echo goroutine
// blocks until the request cell advances, then answers; the driver commits
// the request and blocks until the answer. Run by CI bench-smoke.
func BenchmarkParkWake(b *testing.B) {
	rt := New(Config{})
	req, resp := NewVar(0), NewVar(0)
	stop := make(chan struct{})
	var echoErr atomic.Value
	go func() {
		last := 0
		for {
			var cur int
			err := rt.RunOpt(nil, 1, 1, func(tx *Tx) error {
				cur = Read(tx, req)
				if cur == last || cur < 0 {
					if cur < 0 {
						return nil // poison: exit
					}
					tx.Retry()
				}
				return nil
			}, RunOpts{Block: true})
			if err != nil {
				echoErr.Store(err)
				close(stop)
				return
			}
			if cur < 0 {
				close(stop)
				return
			}
			last = cur
			if err := rt.Atomic(1, 1, func(tx *Tx) error {
				Write(tx, resp, cur)
				return nil
			}); err != nil {
				echoErr.Store(err)
				close(stop)
				return
			}
		}
	}()

	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := rt.Atomic(0, 0, func(tx *Tx) error {
			Write(tx, req, i)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if err := rt.RunOpt(nil, 0, 0, func(tx *Tx) error {
			if Read(tx, resp) != i {
				tx.Retry()
			}
			return nil
		}, RunOpts{Block: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, req, -1)
		return nil
	})
	<-stop
	if err := echoErr.Load(); err != nil {
		b.Fatal(err)
	}
}
