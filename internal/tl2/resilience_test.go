package tl2

import (
	"context"
	"errors"
	"testing"
	"time"

	"gstm/internal/txid"
)

// alwaysAbort is a FaultInjector that spuriously aborts every attempt,
// turning any transaction into an infinite retry loop.
type alwaysAbort struct{}

func (alwaysAbort) SpuriousAbort(txid.Pair, int) bool { return true }
func (alwaysAbort) CommitDelay(txid.Pair, int) int    { return 0 }

// TestPanicReleasesEagerLocks is the regression test for the lock-leak on
// user panic: under encounter-time locking a panic out of the transaction
// body used to skip releaseLocks and pool a Tx still holding locks, so the
// location stayed locked forever.
func TestPanicReleasesEagerLocks(t *testing.T) {
	rt := New(Config{EagerWriteLock: true})
	v := NewVar(0)

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("user panic did not propagate out of Atomic")
			} else if r != "boom" {
				t.Fatalf("panic value changed: %v", r)
			}
		}()
		_ = rt.Atomic(0, 0, func(tx *Tx) error {
			Write(tx, v, 1) // takes the encounter-time lock
			panic("boom")
		})
	}()

	if _, locked := v.LockState(); locked {
		t.Fatal("lock leaked: location still locked after panic")
	}
	// The pooled Tx must be clean and the location usable: a fresh
	// transaction on the same Var must commit promptly.
	done := make(chan error, 1)
	go func() {
		done <- rt.Atomic(1, 1, func(tx *Tx) error {
			Write(tx, v, Read(tx, v)+41)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follow-up transaction failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow-up transaction hung: leaked lock or dirty pooled Tx")
	}
	if got := v.Peek(); got != 41 {
		t.Fatalf("panicked attempt's write leaked: got %d, want 41", got)
	}
}

// TestPanicReleasesLazyState checks the same panic path under the default
// commit-time locking: no locks are held mid-body, but the pooled Tx must
// still come back clean.
func TestPanicReleasesLazyState(t *testing.T) {
	rt := New(Config{})
	v := NewVar(0)
	for i := 0; i < 8; i++ {
		func() {
			defer func() { recover() }()
			_ = rt.Atomic(0, 0, func(tx *Tx) error {
				Write(tx, v, 99)
				panic(i)
			})
		}()
	}
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, v, Read(tx, v)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Peek(); got != 1 {
		t.Fatalf("panicked writes leaked into commit: got %d, want 1", got)
	}
}

// TestAtomicCtxPreCanceled returns ctx.Err() without ever running the body.
func TestAtomicCtxPreCanceled(t *testing.T) {
	rt := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := rt.AtomicCtx(ctx, 0, 0, func(tx *Tx) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("body ran under a canceled context")
	}
	if _, canceled := rt.ResilienceStats(); canceled != 1 {
		t.Fatalf("canceled counter = %d, want 1", canceled)
	}
}

// TestAtomicCtxCancelStopsRetryLoop cancels a transaction stuck in an
// abort/retry livelock (every attempt spuriously aborted) and requires it
// to stop within one retry iteration, leaving no locks held.
func TestAtomicCtxCancelStopsRetryLoop(t *testing.T) {
	rt := New(Config{EagerWriteLock: true})
	rt.SetFaultInjector(alwaysAbort{})
	v := NewVar(0)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- rt.AtomicCtx(ctx, 0, 0, func(tx *Tx) error {
			Write(tx, v, Read(tx, v)+1)
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let it spin through some aborts
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AtomicCtx did not stop after cancel")
	}
	if _, locked := v.LockState(); locked {
		t.Fatal("lock held after canceled transaction")
	}
	if _, canceled := rt.ResilienceStats(); canceled != 1 {
		_, c := rt.ResilienceStats()
		t.Fatalf("canceled counter = %d, want 1", c)
	}
}

// TestAtomicCtxRetryBudget exhausts a per-call budget against permanent
// spurious aborts: exactly budget attempts run, the call returns
// ErrBudgetExceeded, and the exhaustion is counted separately from aborts.
func TestAtomicCtxRetryBudget(t *testing.T) {
	rt := New(Config{})
	rt.SetFaultInjector(alwaysAbort{})
	v := NewVar(0)

	const budget = 5
	attempts := 0
	ctx := WithBudget(context.Background(), budget)
	err := rt.AtomicCtx(ctx, 0, 0, func(tx *Tx) error {
		attempts++
		Write(tx, v, Read(tx, v)+1)
		return nil
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if attempts != budget {
		t.Fatalf("body ran %d times, want %d", attempts, budget)
	}
	if _, aborts := rt.Stats(); aborts != budget {
		t.Fatalf("aborts = %d, want %d", aborts, budget)
	}
	if exceeded, _ := rt.ResilienceStats(); exceeded != 1 {
		t.Fatalf("budgetExceeded = %d, want 1", exceeded)
	}
	if got := v.Peek(); got != 0 {
		t.Fatalf("aborted attempts published writes: %d", got)
	}
	// Without a budget the same runtime still retries: clear the injector
	// and the transaction must succeed.
	rt.SetFaultInjector(nil)
	if err := rt.AtomicCtx(context.Background(), 0, 0, func(tx *Tx) error {
		Write(tx, v, Read(tx, v)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicROCtx covers the read-only fast path under context control.
func TestAtomicROCtx(t *testing.T) {
	rt := New(Config{})
	v := NewVar(7)
	var got int
	if err := rt.AtomicROCtx(context.Background(), 0, 0, func(tx *Tx) error {
		got = Read(tx, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("read %d, want 7", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.AtomicROCtx(ctx, 0, 0, func(tx *Tx) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
