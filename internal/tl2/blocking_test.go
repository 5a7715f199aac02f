package tl2

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/obs"
	"gstm/internal/txid"
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
	// waiter check (a waitBit test per written base) adds nothing.
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

// BenchmarkParkCancel parks 1024 transactions on one location and cancels
// them together, timing the cancel until every parker has returned. Each
// parker unlinks its own node on the way out, so a round costs O(n) in the
// side table however crowded the location is, not O(n²) — the cost of a
// hot key's watches whose connections close at once.
func BenchmarkParkCancel(b *testing.B) {
	const parkers = 1024
	rt := New(Config{})
	v := NewVar(0)
	body := func(tx *Tx) error {
		if Read(tx, v) == 0 {
			tx.Retry()
		}
		return nil
	}
	for range b.N {
		b.StopTimer()
		ctx, cancel := context.WithCancel(context.Background())
		parked0 := rt.Telemetry().Snapshot().Parked
		var wg sync.WaitGroup
		for range parkers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = rt.RunOpt(nil, 0, 0, body, RunOpts{Block: true, BlockCtx: ctx})
			}()
		}
		for rt.Telemetry().Snapshot().Parked-parked0 < parkers {
			time.Sleep(100 * time.Microsecond)
		}
		b.StartTimer()
		cancel()
		wg.Wait()
	}
}

// TestRetryPingPong hands a token back and forth between two goroutines
// through Retry: each parks until the token is its own, then passes it on.
// Every handoff is a park racing the other side's commit, so a lost
// wakeup — a commit that drains the side table between a parker's mark and
// its registration, or misses the mark — leaves both sides parked; the
// deadline turns that hang into a failure. CI runs it under -race on two
// cores.
func TestRetryPingPong(t *testing.T) {
	const rounds = 10_000
	rt := New(Config{})
	token := NewVar(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	errc := make(chan error, 2)
	for side := 0; side < 2; side++ {
		go func() {
			for turn := side; turn < rounds; turn += 2 {
				err := rt.RunOpt(nil, txid.ThreadID(side), 0, func(tx *Tx) error {
					if Read(tx, token) != turn {
						tx.Retry()
					}
					Write(tx, token, turn+1)
					return nil
				}, RunOpts{Block: true, BlockCtx: ctx})
				if err != nil {
					errc <- fmt.Errorf("side %d at turn %d (token %d): %w", side, turn, token.Peek(), err)
					return
				}
			}
			errc <- nil
		}()
	}
	for range 2 {
		if err := <-errc; err != nil {
			t.Fatalf("lost wakeup? %v", err)
		}
	}
	if got := token.Peek(); got != rounds {
		t.Fatalf("token = %d, want %d", got, rounds)
	}
	if n := parkedOn(&token.b); n != 0 {
		t.Fatalf("%d waiter nodes left on the token", n)
	}
}

// parkedOn counts the side table's waiter nodes on bs.
func parkedOn(bs ...*base) int {
	n := 0
	waitTable.mu.Lock()
	for _, b := range bs {
		for w := waitTable.m[b]; w != nil; w = w.next {
			n++
		}
	}
	waitTable.mu.Unlock()
	return n
}

// TestWaitTableHoldsOnlyLiveParkers: a parker removes its own nodes on
// every way out of a park — woken by a commit, canceled, skipping the sleep
// because the mark found a newer version, and woken through one of two
// locations it read, which leaves its node on the other one to it. The
// table therefore never outlives its parkers, nor pins their locations.
func TestWaitTableHoldsOnlyLiveParkers(t *testing.T) {
	rt := New(Config{})
	// parked runs fn as a blocking transaction on its own goroutine and
	// returns its result channel once it has parked.
	parked := func(t *testing.T, fn func(*Tx) error, ctx context.Context) <-chan error {
		t.Helper()
		parked0 := rt.Telemetry().Snapshot().Parked
		errc := make(chan error, 1)
		go func() { errc <- rt.RunOpt(nil, 0, 0, fn, RunOpts{Block: true, BlockCtx: ctx}) }()
		deadline := time.Now().Add(5 * time.Second)
		for rt.Telemetry().Snapshot().Parked == parked0 {
			if time.Now().After(deadline) {
				t.Fatal("never parked")
			}
			time.Sleep(time.Millisecond)
		}
		return errc
	}
	wait := func(t *testing.T, errc <-chan error) error {
		t.Helper()
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("parker never returned")
			return nil
		}
	}
	set := func(t *testing.T, v *Var[int], x int) {
		t.Helper()
		if err := rt.Atomic(1, 1, func(tx *Tx) error { Write(tx, v, x); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	untilNonzero := func(vs ...*Var[int]) func(*Tx) error {
		return func(tx *Tx) error {
			for _, v := range vs {
				if Read(tx, v) != 0 {
					return nil
				}
			}
			tx.Retry()
			return nil
		}
	}

	t.Run("woken", func(t *testing.T) {
		v := NewVar(0)
		errc := parked(t, untilNonzero(v), nil)
		if n := parkedOn(&v.b); n != 1 {
			t.Fatalf("%d nodes while parked, want 1", n)
		}
		set(t, v, 1)
		if err := wait(t, errc); err != nil {
			t.Fatal(err)
		}
		if n := parkedOn(&v.b); n != 0 {
			t.Fatalf("%d nodes after the wakeup", n)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		v := NewVar(0)
		ctx, cancel := context.WithCancel(context.Background())
		errc := parked(t, untilNonzero(v), ctx)
		cancel()
		if err := wait(t, errc); !errors.Is(err, ErrCanceled) {
			t.Fatalf("got %v, want ErrCanceled", err)
		}
		if n := parkedOn(&v.b); n != 0 {
			t.Fatalf("%d nodes after the cancel", n)
		}
	})
	t.Run("skipped sleep", func(t *testing.T) {
		// The first attempt reads v, then has another goroutine commit to
		// it before retrying: the mark finds a version above rv, so the
		// park skips its sleep and the second attempt finds the value.
		v := NewVar(0)
		parked0 := rt.Telemetry().Snapshot().Parked
		err := rt.RunOpt(nil, 0, 0, func(tx *Tx) error {
			if Read(tx, v) != 0 {
				return nil
			}
			done := make(chan error)
			go func() { done <- rt.Atomic(1, 1, func(tx *Tx) error { Write(tx, v, 1); return nil }) }()
			if err := <-done; err != nil {
				return err
			}
			tx.Retry()
			return nil
		}, RunOpts{Block: true})
		if err != nil {
			t.Fatal(err)
		}
		if rt.Telemetry().Snapshot().Parked != parked0 {
			t.Fatal("the park slept although the mark found a newer version")
		}
		if n := parkedOn(&v.b); n != 0 {
			t.Fatalf("%d nodes after the skipped sleep", n)
		}
	})
	t.Run("woken through another location", func(t *testing.T) {
		a, b := NewVar(0), NewVar(0)
		errc := parked(t, untilNonzero(a, b), nil)
		if n := parkedOn(&a.b, &b.b); n != 2 {
			t.Fatalf("%d nodes while parked on two locations, want 2", n)
		}
		set(t, a, 1)
		if err := wait(t, errc); err != nil {
			t.Fatal(err)
		}
		if n := parkedOn(&a.b, &b.b); n != 0 {
			t.Fatalf("%d nodes after the wakeup, want 0 (b's is the parker's to remove)", n)
		}
		// b still carries the mark nobody cleared: its next commit finds an
		// empty list and wakes nobody.
		set(t, b, 1)
	})
}

// TestWaitListUnlink drives the side table's lists directly: nodes on one
// base unlink in any order (head, middle, tail) without disturbing the
// rest, and a node a drain already took is left alone by its parker's
// unregister, even after new parkers have linked onto the same base.
func TestWaitListUnlink(t *testing.T) {
	b := &NewVar(0).b
	var w parkWaiter
	w.prepare()
	list := func() []*waiterNode {
		var got []*waiterNode
		waitTable.mu.Lock()
		defer waitTable.mu.Unlock()
		var prev *waiterNode
		for n := waitTable.m[b]; n != nil; n = n.next {
			if n.prev != prev {
				t.Fatalf("node %p: prev %p, want %p", n, n.prev, prev)
			}
			got = append(got, n)
			prev = n
		}
		return got
	}
	nodes := make([]waiterNode, 5)
	for i := range nodes {
		nodes[i] = waiterNode{w: &w, b: b}
		registerWaiters(nodes[i : i+1])
	}
	// Newest first: 4 3 2 1 0. Unlink a middle node, the tail, the head.
	for _, step := range []struct {
		drop int
		want []int
	}{{2, []int{4, 3, 1, 0}}, {0, []int{4, 3, 1}}, {4, []int{3, 1}}} {
		unregisterWaiters(nodes[step.drop : step.drop+1])
		got := list()
		if len(got) != len(step.want) {
			t.Fatalf("after dropping %d: %d nodes, want %v", step.drop, len(got), step.want)
		}
		for i, n := range got {
			if n != &nodes[step.want[i]] {
				t.Fatalf("after dropping %d: position %d is not node %d", step.drop, i, step.want[i])
			}
		}
	}

	// A drain takes nodes 3 and 1; a new parker links onto b; the old
	// parkers' unregisters must not touch the new list.
	wakeWaiters(b)
	if !w.fired.Load() {
		t.Fatal("the drain did not wake the waiter")
	}
	fresh := []waiterNode{{w: &w, b: b}}
	registerWaiters(fresh)
	unregisterWaiters(nodes)
	if got := list(); len(got) != 1 || got[0] != &fresh[0] {
		t.Fatalf("after the stale unregisters the list is %v, want only the fresh node", got)
	}
	unregisterWaiters(fresh)
	if n := parkedOn(b); n != 0 {
		t.Fatalf("%d nodes left", n)
	}
	waitTable.mu.Lock()
	_, ok := waitTable.m[b]
	waitTable.mu.Unlock()
	if ok {
		t.Fatal("an empty list left its entry in the table")
	}
}
