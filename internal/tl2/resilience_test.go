package tl2

import (
	"context"
	"errors"
	"testing"
	"time"

	"gstm/internal/txid"
	"gstm/internal/wset"
)

// alwaysAbort is a FaultInjector that spuriously aborts every attempt,
// turning any transaction into an infinite retry loop.
type alwaysAbort struct{}

func (alwaysAbort) SpuriousAbort(txid.Pair, int) bool { return true }
func (alwaysAbort) CommitDelay(txid.Pair, int) int    { return 0 }

// TestPanicReleasesLazyState checks the user-panic path under commit-time
// locking: no locks are held mid-body, but the pooled Tx must still come
// back clean.
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
	err := rt.Run(ctx, 0, 0, func(tx *Tx) error { ran = true; return nil }, false, 0)
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
	rt := New(Config{})
	rt.SetFaultInjector(alwaysAbort{})
	v := NewVar(0)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(ctx, 0, 0, func(tx *Tx) error {
			Write(tx, v, Read(tx, v)+1)
			return nil
		}, false, 0)
	}()
	time.Sleep(10 * time.Millisecond) // let it spin through some aborts
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop after cancel")
	}
	if _, locked := v.LockState(); locked {
		t.Fatal("lock held after canceled transaction")
	}
	if _, canceled := rt.ResilienceStats(); canceled != 1 {
		_, c := rt.ResilienceStats()
		t.Fatalf("canceled counter = %d, want 1", c)
	}
}

// TestAtomicCtxRetryBudget exhausts a per-call budget (maxAttempts) on a
// context-honoring call against permanent spurious aborts: exactly budget
// attempts run, the call returns ErrBudgetExceeded, and the exhaustion is
// counted separately from aborts.
func TestAtomicCtxRetryBudget(t *testing.T) {
	rt := New(Config{})
	rt.SetFaultInjector(alwaysAbort{})
	v := NewVar(0)

	const budget = 5
	attempts := 0
	err := rt.Run(context.Background(), 0, 0, func(tx *Tx) error {
		attempts++
		Write(tx, v, Read(tx, v)+1)
		return nil
	}, false, budget)
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
	if err := rt.Run(context.Background(), 0, 0, func(tx *Tx) error {
		Write(tx, v, Read(tx, v)+1)
		return nil
	}, false, 0); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicROCtx covers the read-only fast path under context control.
func TestAtomicROCtx(t *testing.T) {
	rt := New(Config{})
	v := NewVar(7)
	var got int
	if err := rt.Run(context.Background(), 0, 0, func(tx *Tx) error {
		got = Read(tx, v)
		return nil
	}, true, 0); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("read %d, want 7", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.Run(ctx, 0, 0, func(tx *Tx) error { return nil }, true, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCommitLockFailureRestoresAcquiredLocks holds the lock of the last
// location of a spilled write set, so the commit acquires every other lock
// before it gives up: each acquired lock must be restored to its pre-lock
// word, and no value published.
func TestCommitLockFailureRestoresAcquiredLocks(t *testing.T) {
	rt := New(Config{})
	const n = wset.InlineSize + 4
	arr := NewArray[int](n)
	// Commit once so every element has a nonzero pre-version to restore.
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		for i := 0; i < n; i++ {
			WriteAt(tx, arr, i, i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	pre := make([]uint64, n)
	for i := 0; i < n; i++ {
		pre[i], _ = arr.At(i).LockState()
	}
	// Array cells sit at ascending addresses, so the last one is locked
	// last.
	last := &arr.At(n - 1).b.word
	held := last.Load()
	last.Store(held | lockedBit)
	err := rt.Run(nil, 0, 0, func(tx *Tx) error {
		for i := 0; i < n; i++ {
			WriteAt(tx, arr, i, 100+i)
		}
		return nil
	}, false, 1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	last.Store(held)
	for i := 0; i < n; i++ {
		version, locked := arr.At(i).LockState()
		if locked || version != pre[i] {
			t.Fatalf("element %d = (version %d, locked %v), want (%d, false)", i, version, locked, pre[i])
		}
		if got := arr.Peek(i); got != i {
			t.Fatalf("element %d value %d leaked from the failed commit", i, got)
		}
	}
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		WriteAt(tx, arr, 0, 42)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := arr.Peek(0); got != 42 {
		t.Fatalf("follow-up write = %d", got)
	}
}
