package gstm

// Internal-package resilience tests: these need to build adversarial
// models out of raw trace keys and to reach the runtime's fault-injection
// hook, neither of which the public API exposes (deliberately).

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/faultinject"
	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/trace"
	"gstm/internal/txid"
)

func soloKey(p txid.Pair) trace.Key {
	return trace.NewState(nil, p.Pack()).Key()
}

// adversarialModel returns a TSA that knows the solo states of the given
// pairs but routes every one of them to a ghost pair that never runs: the
// gate will hold (and finally escape) every real arrival.
func adversarialModel(threads int, pairs []txid.Pair) *Model {
	m := model.New(threads)
	ghost := txid.Pair{Txn: 99, Thread: 99}
	for _, p := range pairs {
		m.AddTransitionKeys(soloKey(p), soloKey(ghost))
	}
	return m
}

// TestSystemRunCancelUnderLivelock is acceptance criterion (a): a
// canceled context stops a high-contention Run within one retry
// iteration, with no locks held, and Health counts the abandonment.
func TestSystemRunCancelUnderLivelock(t *testing.T) {
	sys := NewSystem(Config{Threads: 2})
	// A permanent spurious-abort schedule turns the transaction into an
	// abort/retry livelock that only cancellation can end.
	sys.rt.SetFaultInjector(faultinject.New(faultinject.Config{Seed: 1, SpuriousAbortProb: 1.01}))
	v := NewVar(0)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- sys.Run(ctx, 0, 0, func(tx *Tx) error {
			Write(tx, v, Read(tx, v)+1)
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let it spin through aborts
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run kept retrying after cancel")
	}
	if _, locked := v.LockState(); locked {
		t.Fatal("canceled transaction left its lock held")
	}
	if v.Peek() != 0 {
		t.Fatalf("canceled transaction published a write: %d", v.Peek())
	}
	h := sys.Health()
	if h.ContextCanceled != 1 {
		t.Fatalf("Health.ContextCanceled = %d, want 1", h.ContextCanceled)
	}
	if h.Commits != 0 {
		t.Fatalf("Health.Commits = %d, want 0", h.Commits)
	}
}

// TestSystemRetryBudgetDeterministicConflict drives the public budget API
// with a real (not injected) conflict: the transaction reads x, then the
// test commits a new version of x before letting the attempt commit, so
// read validation must fail every attempt until the budget runs out.
func TestSystemRetryBudgetDeterministicConflict(t *testing.T) {
	sys := NewSystem(Config{Threads: 2})
	x := NewVar(0)
	y := NewVar(0)

	const budget = 4
	var attempts atomic.Int32
	bodyRead := make(chan struct{})
	conflictDone := make(chan struct{})

	done := make(chan error, 1)
	go func() {
		done <- sys.Run(context.Background(), 0, 0, func(tx *Tx) error {
			attempts.Add(1)
			_ = Read(tx, x) // records x's version in the read set
			bodyRead <- struct{}{}
			<-conflictDone // test now commits a newer x
			Write(tx, y, 1)
			return nil
		}, WithMaxAttempts(budget))
	}()
	for i := 0; i < budget; i++ {
		<-bodyRead
		if err := sys.Run(nil, 1, 1, func(tx *Tx) error {
			Write(tx, x, Read(tx, x)+1)
			return nil
		}); err != nil {
			t.Fatalf("conflicting writer: %v", err)
		}
		conflictDone <- struct{}{}
	}
	if err := <-done; !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
	if got := attempts.Load(); got != budget {
		t.Fatalf("body ran %d times, want %d", got, budget)
	}
	if y.Peek() != 0 {
		t.Fatalf("budget-exhausted transaction published writes: y=%d", y.Peek())
	}
	h := sys.Health()
	if h.RetryBudgetExceeded != 1 {
		t.Fatalf("Health.RetryBudgetExceeded = %d, want 1", h.RetryBudgetExceeded)
	}
	if h.Aborts != budget {
		t.Fatalf("Health.Aborts = %d, want %d", h.Aborts, budget)
	}
}

// TestWatchdogFallbackOnAdversarialModel is acceptance criterion (b): a
// deliberately wrong model (every destination set names a pair that never
// runs) would hold every arrival forever; the watchdog must detect the
// degradation, trip guidance into pass-through, and let the workload
// complete near unguided speed. Health and Degraded must report it.
func TestWatchdogFallbackOnAdversarialModel(t *testing.T) {
	const threads = 4
	iters := 3000
	if testing.Short() {
		iters = 600
	}
	pairs := make([]txid.Pair, threads)
	for i := range pairs {
		pairs[i] = txid.Pair{Txn: txid.TxnID(i), Thread: txid.ThreadID(i)}
	}

	// Per-thread private vars: the workload itself is conflict-free, so any
	// slowdown is pure guidance overhead.
	run := func(sys *System) time.Duration {
		vars := make([]*Var[int], threads)
		for i := range vars {
			vars[i] = NewVar(0)
		}
		begin := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					_ = sys.Run(nil, ThreadID(w), TxnID(w), func(tx *Tx) error {
						Write(tx, vars[w], Read(tx, vars[w])+1)
						return nil
					})
				}
			}(w)
		}
		wg.Wait()
		for i, v := range vars {
			if got := v.Peek(); got != iters {
				t.Fatalf("worker %d completed %d/%d increments", i, got, iters)
			}
		}
		return time.Since(begin)
	}

	baseSys := NewSystem(Config{Threads: threads})
	baseline := run(baseSys)

	sys := NewSystem(Config{Threads: threads})
	sys.ForceGuidance(adversarialModel(threads, pairs),
		WithTfactor(4),
		WithGateRetries(1),
		WithWatchdog(), // the trip is final — the model cannot improve
	)
	guided := run(sys)

	h := sys.Health()
	if !h.WatchdogEnabled {
		t.Fatal("Health.WatchdogEnabled = false under ForceGuidance WithWatchdog")
	}
	if h.Watchdog.State != guide.WatchdogTripped || h.Watchdog.Trips < 1 {
		t.Fatalf("watchdog did not trip on the adversarial model: %+v", h.Watchdog)
	}
	if !h.Degraded() {
		t.Fatal("Health.Degraded() = false after a final trip")
	}
	if h.GateEscaped == 0 {
		t.Fatal("no escapes recorded: the model was not actually adversarial")
	}
	if h.Watchdog.EscapeRate <= 0 {
		t.Fatalf("recorded escape rate %v, want > 0", h.Watchdog.EscapeRate)
	}
	if h.Commits != uint64(threads*iters) {
		t.Fatalf("guided commits = %d, want %d", h.Commits, threads*iters)
	}

	// Near-unguided completion: the bound is deliberately generous (the
	// spec's 10% is a real-machine number; CI boxes jitter far more), but
	// tight enough to fail if guidance had stayed on — every one of the
	// threads*iters arrivals would then spin the gate's full retry ladder.
	limit := 5*baseline + 250*time.Millisecond
	if guided > limit {
		t.Fatalf("degraded mode still slow: guided %v vs baseline %v (limit %v)", guided, baseline, limit)
	}
	t.Logf("baseline %v, guided-with-tripped-watchdog %v, trips=%d", baseline, guided, h.Watchdog.Trips)
}

// TestReconfigureUnderLoad toggles every sink/gate reconfiguration entry
// point — profiling on/off, guidance on/off (with and without watchdog),
// custom scheduler, guidance behind the dequeue check — while workers keep
// committing and a checker keeps calling CheckDequeue. Run under -race this
// checks the atomic gate/sink/check swap paths; the final counts check that
// no increment was lost across any reconfiguration.
func TestReconfigureUnderLoad(t *testing.T) {
	const threads = 4
	iters := 2000
	if testing.Short() {
		iters = 400
	}
	sys := NewSystem(Config{Threads: threads})
	vars := make([]*Var[int], threads)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	shared := NewVar(0)

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := sys.Run(nil, ThreadID(w), TxnID(w), func(tx *Tx) error {
					Write(tx, vars[w], Read(tx, vars[w])+1)
					Write(tx, shared, Read(tx, shared)+1)
					return nil
				}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	pairs := make([]txid.Pair, threads)
	for i := range pairs {
		pairs[i] = txid.Pair{Txn: txid.TxnID(i), Thread: txid.ThreadID(i)}
	}
	m := adversarialModel(threads, pairs)
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sys.CheckDequeue(pairs[i%threads])
		}
	}()
	defer func() { <-checked }()
	for i := 0; ; i++ {
		select {
		case <-stop:
			goto done
		default:
		}
		switch i % 6 {
		case 0:
			sys.StartProfiling()
		case 1:
			sys.StopProfiling()
		case 2:
			// EnableGuidance may reject the adversarial model; the validated
			// install path is exercised either way, ForceGuidance regardless.
			_ = sys.EnableGuidance(m, WithTfactor(4), WithGateRetries(1))
			sys.ForceGuidance(m, WithTfactor(4), WithGateRetries(1),
				WithWatchdog())
		case 3:
			sys.SetScheduler(faultinject.NewStarvingGate(nil, 2), faultinject.NewStallingSink(nil, 2))
		case 4:
			sys.ForceGuidance(m, WithDequeueCheck())
		case 5:
			sys.DisableGuidance()
		}
		_ = sys.Health()
		_, _ = sys.Stats()
		time.Sleep(200 * time.Microsecond)
	}
done:
	if t.Failed() {
		return
	}
	sys.StopProfiling() // drop any profiling left active by the last toggle
	for w, v := range vars {
		if got := v.Peek(); got != iters {
			t.Fatalf("worker %d count = %d, want %d (lost under reconfiguration)", w, got, iters)
		}
	}
	if got := shared.Peek(); got != threads*iters {
		t.Fatalf("shared count = %d, want %d", got, threads*iters)
	}
}

// TestHealthSnapshotShape covers the Health plumbing that the other tests
// don't: unguided systems, and guidance without a watchdog.
func TestHealthSnapshotShape(t *testing.T) {
	sys := NewSystem(Config{Threads: 2})
	if err := sys.Run(nil, 0, 0, func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	h := sys.Health()
	if h.Guided || h.WatchdogEnabled || h.Degraded() {
		t.Fatalf("unguided health claims guidance: %+v", h)
	}
	if h.Commits != 1 {
		t.Fatalf("Commits = %d, want 1", h.Commits)
	}

	sys.ForceGuidance(adversarialModel(2, []txid.Pair{{Txn: 0, Thread: 0}}), WithTfactor(4))
	h = sys.Health()
	if !h.Guided || h.WatchdogEnabled {
		t.Fatalf("guided-without-watchdog health wrong: %+v", h)
	}
	sys.DisableGuidance()
	if h := sys.Health(); h.Guided {
		t.Fatal("health still guided after DisableGuidance")
	}
}

// TestDequeueCheckInstallsNoGate: guidance installed WithDequeueCheck puts
// no gate in front of Run — on the adversarial model a transaction would
// otherwise spin the whole retry ladder — and is reachable only through
// CheckDequeue, whose decisions feed GateStats and the watchdog like gate
// arrivals. Uninstalling clears it.
func TestDequeueCheckInstallsNoGate(t *testing.T) {
	pairs := []txid.Pair{{Txn: 0, Thread: 0}, {Txn: 1, Thread: 1}}
	sys := NewSystem(Config{Threads: 2})
	if _, ok := sys.CheckDequeue(pairs[0]); ok {
		t.Fatal("unguided system answered CheckDequeue")
	}
	sys.ForceGuidance(adversarialModel(2, pairs), WithGateRetries(1<<30),
		WithWatchdog(), WithDequeueCheck())
	if !sys.Guided() {
		t.Fatal("not guided after WithDequeueCheck")
	}
	v := NewVar(0)
	for i := 0; sys.Mode() != ModeDegraded; i++ {
		if i == 2*512 {
			t.Fatalf("two watchdog windows of checks did not trip it: %+v", sys.Health().Watchdog)
		}
		// With a gate each of these would spin 2^30 re-checks.
		if err := sys.Run(nil, 0, 0, func(tx *Tx) error {
			Write(tx, v, Read(tx, v)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sys.Mode() == ModeDegraded {
			break // this commit closed the window
		}
		o, ok := sys.CheckDequeue(pairs[0])
		if !ok || (i > 0 && o != GateEscape) {
			t.Fatalf("check %d: %v, %v; the adversarial model admitted a real pair in a known state", i, o, ok)
		}
	}
	h := sys.Health()
	if h.GateHeld != 0 || h.GateEscaped == 0 || h.GatePassed > 1 {
		t.Fatalf("gate stats %d/%d/%d, want at most the first check passed and escapes after",
			h.GatePassed, h.GateHeld, h.GateEscaped)
	}
	if o, ok := sys.CheckDequeue(pairs[0]); !ok || o != GatePass {
		t.Fatalf("a tripped watchdog's check said %v, %v", o, ok)
	}
	sys.DisableGuidance()
	if _, ok := sys.CheckDequeue(pairs[0]); ok {
		t.Fatal("DisableGuidance left the dequeue check installed")
	}
	sys.ForceGuidance(adversarialModel(2, pairs))
	if _, ok := sys.CheckDequeue(pairs[0]); ok {
		t.Fatal("a gated install answers CheckDequeue")
	}
}
