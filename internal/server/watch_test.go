package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"gstm"
)

// waitParked polls the shards' telemetry until at least n transactions
// have parked (tx.Retry put a watch to sleep on its read set).
func waitParked(t *testing.T, s *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var parked uint64
		for sh := 0; sh < s.Shards(); sh++ {
			parked += s.Router().System(sh).Telemetry().Snapshot().Parked
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no watch parked within deadline (parked=%d, want >= %d)", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchWakesOnCommit is the acceptance scenario: a blocked watch must
// wake on a concurrent commit without polling. One client parks an OpWatch
// on an absent key; a second client's Put must wake it with the new value,
// and the park must be visible in telemetry (gstm_tx_parked_total's
// counter) and in the span timeline (a "park" event with cause "wakeup").
func TestWatchWakesOnCommit(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true, TraceSampleEvery: 1})

	watcher, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	watcher.SetTrace(true) // retain the watch span in the forced ring

	type watchResult struct {
		v   uint64
		err error
	}
	got := make(chan watchResult, 1)
	go func() {
		v, err := watcher.Watch(42, 0)
		got <- watchResult{v, err}
	}()

	waitParked(t, s, 1)
	select {
	case r := <-got:
		t.Fatalf("watch returned before any commit: %+v", r)
	default:
	}

	writer, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if _, err := writer.Put(42, 7); err != nil {
		t.Fatal(err)
	}

	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("watch: %v", r.err)
		}
		if r.v != 7 {
			t.Fatalf("watch woke with value %d, want 7", r.v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not wake on the writer's commit")
	}

	// The park must be attributable: the forced ring retains the watch
	// span, whose timeline carries a park event resolved by a wakeup.
	snap := s.Observatory().Snapshot()
	found := false
	for _, sp := range append(snap.Forced, snap.Slowest...) {
		for _, ev := range sp.Events {
			if ev.Phase == "park" && ev.Cause == "wakeup" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no span with a park/wakeup event in /debug/trace retention")
	}
}

// TestWatchBucketNeighbour: the store's conflict unit is the bucket cell,
// so a watch parks on its key's whole bucket. A write to another key in
// that bucket wakes it, but it must re-run, find its own key unchanged and
// park again without answering; only a change to the watched key answers.
func TestWatchBucketNeighbour(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true, Buckets: 16})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const watched = 5
	if _, err := cl.Put(watched, 10); err != nil {
		t.Fatal(err)
	}

	watcher, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	got := make(chan uint64, 1)
	go func() {
		v, err := watcher.Watch(watched, 10)
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	waitParked(t, s, 1)

	// 64 other keys over 16 buckets: some land in the watched key's bucket,
	// and each of those wakes the watch into a second park.
	for k := uint64(100); k < 164; k++ {
		if _, err := cl.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	waitParked(t, s, 2)
	select {
	case v := <-got:
		t.Fatalf("watch answered %d though only its bucket neighbours were written", v)
	default:
	}

	if _, err := cl.Add(watched, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 11 {
			t.Fatalf("watch woke with %d, want 11", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not answer when its own key changed")
	}
}

// TestWatchValueChange: a watch on a present key must not return until the
// value differs from the client's last-seen one.
func TestWatchValueChange(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put(5, 10); err != nil {
		t.Fatal(err)
	}

	watcher, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	got := make(chan uint64, 1)
	go func() {
		v, err := watcher.Watch(5, 10) // last-seen 10: must block until it changes
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	waitParked(t, s, 1)
	if _, err := cl.Add(5, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 11 {
			t.Fatalf("watch woke with %d, want 11", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not wake on value change")
	}
}

// TestWaitKeyImmediate: OpWaitKey on a present key answers without
// parking.
func TestWaitKeyImmediate(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put(9, 99); err != nil {
		t.Fatal(err)
	}
	v, err := cl.WaitKey(9)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Fatalf("WaitKey = %d, want 99", v)
	}
}

// TestWatchDrainAnswersShutdown: graceful drain must resolve a parked
// watch with StatusShutdown instead of waiting for a commit that will
// never come, and refuse a newly arriving watch with StatusWouldBlock.
func TestWatchDrainAnswersShutdown(t *testing.T) {
	s := New(Config{Workers: 2, Unguided: true})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	watcher, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := watcher.WaitKey(1234) // never created: parks until drain
		errc <- err
	}()
	waitParked(t, s, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain the parked watch: %v", err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("parked watch resolved OK through a drain; want StatusShutdown error")
		}
		if errors.Is(err, gstm.ErrWouldBlock) {
			t.Fatalf("parked watch got would-block; want shutdown status: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked watch unresolved after shutdown")
	}
}

// TestWatchDrainAfterConnClose: a client that walks away mid-park must
// not wedge the drain — the parked goroutine still holds an inflight
// slot, and Shutdown's watch cancellation has to release it even though
// the response write will hit a dead connection.
func TestWatchDrainAfterConnClose(t *testing.T) {
	s := New(Config{Workers: 2, Unguided: true})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	watcher, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = watcher.WaitKey(777) }()
	waitParked(t, s, 1)
	watcher.Close()
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain hung after client conn close: %v", err)
	}
}

// TestLoadgenSubscribers drives the long-poll subscriber scenario: watch
// connections riding alongside an add-heavy load on a tiny hot keyspace
// must observe real change notifications.
func TestLoadgenSubscribers(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	st, err := RunLoad(LoadConfig{
		Addr:       s.Addr().String(),
		Conns:      4,
		OpsPerConn: 500,
		Keys:       4, // every subscriber's key is hot
		Skew:       1,
		GetPct:     0, PutPct: 1, DelPct: 0, // 99% Add: nearly every op changes a value
		Subscribers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops == 0 {
		t.Fatal("no load ops completed")
	}
	if st.SubWakeups == 0 {
		t.Fatal("subscribers saw no wakeups under an all-Add load on 4 keys")
	}
	t.Logf("load ops=%d subscriber wakeups=%d", st.Ops, st.SubWakeups)
}
