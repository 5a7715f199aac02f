package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/faultinject"
	"gstm/internal/obs"
)

// TestDurableCleanShutdown: every operation acknowledged before a
// graceful shutdown must be present after recovery — a clean exit leaves
// no committed-but-unlogged record behind.
func TestDurableCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 2, Batch: 4, Unguided: true,
		WALDir: dir, FsyncInterval: 5 * time.Millisecond,
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	addr := s.Addr().String()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	acked := map[uint64]uint64{}
	for i := uint64(0); i < 300; i++ {
		k := i % 37
		st, v, err := cl.Do(OpAdd, k, 1)
		if err != nil || st != StatusOK {
			t.Fatalf("add %d: status %d err %v", i, st, err)
		}
		acked[k] = v
	}
	cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()

	// Recover into a fresh server on the same directory; acked state must
	// be exactly there (relaxed mode: the clean shutdown flushed + fsynced
	// everything on Close, so even the page-cache window is closed).
	s2 := startServer(t, cfg)
	cl2, err := Dial(s2.Addr().String())
	if err != nil {
		t.Fatalf("dial recovered: %v", err)
	}
	defer cl2.Close()
	for k, want := range acked {
		st, v, err := cl2.Do(OpGet, k, 0)
		if err != nil || st != StatusOK {
			t.Fatalf("get %d after recovery: status %d err %v", k, st, err)
		}
		if v != want {
			t.Fatalf("key %d: recovered %d, acked %d", k, v, want)
		}
	}
	// Recovery recreated no key that was never written.
	if _, ok, err := cl2.Get(37); err != nil || ok {
		t.Fatalf("never-written key 37 after recovery: present %v (err %v)", ok, err)
	}
}

// TestKillAndRecoverChaos is the tentpole acceptance test: an add-only
// ledgered load is cut short by Crash (the in-process SIGKILL), the
// server recovers from the same WAL directory with guided warmup on, and
// every acknowledged write must be present — with the recovered Tseq
// pre-training the shard models so the server restarts guided. It runs
// synchronous and pipelined: at window 8 every add outstanding at the
// crash must be in the ledger's in-flight set, or an add that committed
// unanswered reads as a recovered value above acked+inflight.
func TestKillAndRecoverChaos(t *testing.T) {
	for _, window := range []int{1, 8} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) { killAndRecover(t, window) })
	}
}

func killAndRecover(t *testing.T, window int) {
	dir := t.TempDir()
	// SnapshotEvery stays 0 here: truncation discards Tseq history, and the
	// warmup assertion below needs the full commit trace in the log. The
	// snapshot+crash path is covered by TestSnapshotCrashRecovery.
	cfg := Config{
		Shards: 2, Workers: 2, Batch: 4, Unguided: true,
		WALDir: dir, FsyncInterval: 10 * time.Millisecond,
		GuidedWarmup: true, ForceGuidance: true,
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}

	load := LoadConfig{
		Addr:  s.Addr().String(),
		Conns: 4, Duration: 30 * time.Second, // cut short by the crash
		Keys: 64, Skew: 2, Seed: 0xDEAD, Window: window,
	}
	ledCh := make(chan *Ledger, 1)
	go func() { ledCh <- RunLedgerLoad(load) }()
	// Crash only after every shard has logged comfortably more commits
	// than warmup needs, so the recovered Tseq can train a model per shard.
	deadline := time.Now().Add(20 * time.Second)
	for {
		minCommits := uint64(1 << 62)
		for sh := 0; sh < cfg.Shards; sh++ {
			c, _ := s.Router().System(sh).Stats()
			if c < minCommits {
				minCommits = c
			}
		}
		if minCommits >= 4*warmupMinCommits {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("load never reached %d commits per shard", 4*warmupMinCommits)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Crash()
	led := <-ledCh
	if led.Ops < 100 {
		t.Fatalf("only %d ops before the crash; load never got going", led.Ops)
	}
	// Every add is Arg 1 and an answered non-OK add is an error, so the
	// in-flight sum less the errors is what the crash left unanswered: at
	// least one per connection, at most a window each, and with a window
	// above 1, more than one on some connection.
	var inflight uint64
	for _, n := range led.Inflight {
		inflight += n
	}
	unanswered, conns := inflight-led.Errors, uint64(load.Conns)
	if unanswered < conns || unanswered > conns*uint64(window) || window > 1 && unanswered == conns {
		t.Fatalf("%d adds unanswered at the crash over %d connections at window %d", unanswered, conns, window)
	}

	// Recover. Unguided stays false now so warmup can install guidance.
	cfg.Unguided = false
	s2 := New(cfg)
	if err := s2.Start(); err != nil {
		t.Fatalf("recovery start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	})

	violations, err := VerifyLedger(s2.Addr().String(), led)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	for _, v := range violations {
		t.Errorf("ledger violation: %s", v)
	}

	// Guided warmup: the replayed Tseq trained and force-installed a model
	// on every shard, so the server serves guided without re-profiling.
	if m := s2.Mode(); m != ModeGuided {
		t.Fatalf("recovered mode = %v, want ModeGuided via warmup", m)
	}
	for sh := 0; sh < cfg.Shards; sh++ {
		snap := s2.Router().System(sh).TelemetrySnapshot()
		if snap.RecoveryReplayed == 0 {
			t.Errorf("shard %d: recovery_replayed_records = 0 after a loaded crash", sh)
		}
	}
}

// TestSnapshotCrashRecovery: periodic snapshots truncate the log
// mid-load, the process dies without flushing (Crash), and recovery
// rebuilds exact acked state from snapshot + the post-snapshot record
// tail.
func TestSnapshotCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 2, Batch: 4, Unguided: true,
		WALDir: dir, FsyncInterval: 5 * time.Millisecond, SnapshotEvery: 60,
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	acked := map[uint64]uint64{}
	for i := uint64(0); i < 300; i++ {
		k := i % 37
		st, v, err := cl.Do(OpAdd, k, 1)
		if err != nil || st != StatusOK {
			t.Fatalf("add %d: status %d err %v", i, st, err)
		}
		acked[k] = v
	}
	cl.Close()
	// A cycle's fsyncs and rename run after the log's file lock is
	// released, so acks no longer wait for them: the first cycle may
	// still be finishing after the last ack.
	deadline := time.Now().Add(5 * time.Second)
	for s.Router().System(0).TelemetrySnapshot().WALSnapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot fired over 300 appends with SnapshotEvery=60")
		}
		time.Sleep(time.Millisecond)
	}
	s.Crash()

	s2 := startServer(t, cfg)
	cl2, err := Dial(s2.Addr().String())
	if err != nil {
		t.Fatalf("dial recovered: %v", err)
	}
	defer cl2.Close()
	for k, want := range acked {
		st, v, err := cl2.Do(OpGet, k, 0)
		if err != nil || st != StatusOK {
			t.Fatalf("get %d after recovery: status %d err %v", k, st, err)
		}
		if v != want {
			t.Fatalf("key %d: recovered %d, acked %d", k, v, want)
		}
	}
	// Truncation must have done its job: replay handled only the tail
	// after the last snapshot, not the full history.
	snap := s2.Router().System(0).TelemetrySnapshot()
	if snap.RecoveryReplayed >= 300 {
		t.Fatalf("replayed %d records; snapshots never truncated the log", snap.RecoveryReplayed)
	}
}

// TestWALFailureMapsToUnavailable: when a shard's log dies — an injected
// fsync failure in strict mode, which the flusher hits, or a torn write in
// relaxed mode, which the reader that writes its chunk's record through
// hits — mutating operations answer StatusUnavailable rather than acking
// unlogged state; reads keep working.
func TestWALFailureMapsToUnavailable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interval time.Duration
		faults   faultinject.DiskConfig
	}{
		{"strict-fsync", 0, faultinject.DiskConfig{Seed: 11, FsyncErrorProb: 1}},
		{"relaxed-torn", 5 * time.Millisecond, faultinject.DiskConfig{Seed: 11, TornWriteProb: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultinject.NewDisk(tc.faults)
			s := startServer(t, Config{
				Workers: 2, Batch: 4, Unguided: true,
				WALDir: t.TempDir(), FsyncInterval: tc.interval, DiskFaults: inj,
			})
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer cl.Close()

			sawUnavailable := false
			for i := uint64(0); i < 50; i++ {
				st, _, err := cl.Do(OpAdd, i, 1)
				if err != nil {
					t.Fatalf("add: %v", err)
				}
				if st == StatusUnavailable {
					sawUnavailable = true
					break
				}
			}
			if !sawUnavailable {
				t.Fatal("no StatusUnavailable despite every write or fsync failing")
			}
			if st, _, err := cl.Do(OpGet, 0, 0); err != nil || (st != StatusOK && st != StatusNotFound) {
				t.Fatalf("read after WAL failure: status %d err %v", st, err)
			}
			fsyncErrs, torn, _ := inj.DiskCounts()
			if fsyncErrs+torn == 0 {
				t.Fatal("injector never fired")
			}
		})
	}
}

// firstWriteFault is a DiskFaults hook that, once armed, fails the first
// record write of any log that has written none yet.
type firstWriteFault struct{ armed atomic.Bool }

func (f *firstWriteFault) WriteFault(op uint64, off int64, n int) (int, error) {
	if f.armed.Load() && op == 0 {
		return 0, errors.New("injected write failure")
	}
	return n, nil
}

func (f *firstWriteFault) FsyncFault(op uint64) error { return nil }

// TestRefusedRecordDemotesItsOwnBatch: on a two-shard WAL server, a refused
// record demotes exactly the operations of its own batch on that shard.
// Shard 1's log refuses its first write, so of one key-disjoint segment
// holding Puts, Gets and two OpTxns on both shards, the Put homed on
// shard 1 and both transactions — gathered into one cross-shard commit,
// demoted whole, the one on shard 0 alone included — answer
// StatusUnavailable. The Put on shard 0 is acked, and the Gets, one of them
// homed on the refusing shard, are not demoted.
func TestRefusedRecordDemotesItsOwnBatch(t *testing.T) {
	faults := &firstWriteFault{}
	// An hour between fsyncs keeps the flusher idle: the reader writes each
	// record itself, while it answers.
	s := startServer(t, Config{Shards: 2, Workers: 1, Unguided: true,
		WALDir: t.TempDir(), FsyncInterval: time.Hour, DiskFaults: faults})
	w := s.workers[0]
	var keys [2][]uint64 // keys[sh]: the first keys homed on shard sh
	for k := uint64(1); len(keys[0]) < 4 || len(keys[1]) < 4; k++ {
		sh := s.router.HomeOf(k)
		keys[sh] = append(keys[sh], k)
	}
	var pend pending
	run := func(tasks ...task) []opResult {
		t.Helper()
		pend.reset()
		pend.tasks = append(pend.tasks, tasks...)
		w.run(&pend, obs.Now(), 0)
		s.answer(int(w.id), nil, &pend)
		return pend.results
	}
	put := func(id uint32, k uint64) task { return task{req: Request{Op: OpPut, ID: id, Key: k, Arg: 1}} }
	get := func(id uint32, k uint64) task { return task{req: Request{Op: OpGet, ID: id, Key: k}} }
	txn := func(id uint32, k0, k1 uint64) task {
		return task{req: Request{Op: OpTxn, ID: id, Key: 2},
			txn: []TxnOp{{Op: OpAdd, Key: k0, Arg: 1}, {Op: OpAdd, Key: k1, Arg: 1}}}
	}

	// Shard 0's log writes one record first, so that only shard 1's next
	// write is a first one.
	if r := run(put(1, keys[0][0])); r[0].status != StatusOK {
		t.Fatalf("warm-up Put answered %+v", r[0])
	}
	faults.armed.Store(true)
	got := run(
		put(2, keys[0][1]),
		txn(3, keys[0][2], keys[1][0]),
		get(4, keys[1][1]),
		put(5, keys[1][2]),
		txn(6, keys[0][3], keys[0][0]),
		get(7, keys[1][3]),
	)
	want := []Status{StatusOK, StatusUnavailable, StatusNotFound, StatusUnavailable, StatusUnavailable, StatusNotFound}
	if len(pend.ends) != 1 {
		t.Fatalf("segment ends %v, want one segment", pend.ends)
	}
	for i, r := range got {
		if r.status != want[i] {
			t.Fatalf("request %d answered status %d, want %d (all: %+v)", i+2, r.status, want[i], got)
		}
	}
	if s.WAL(0).Failed() || !s.WAL(1).Failed() {
		t.Fatalf("logs failed: shard 0 %v, shard 1 %v; want only shard 1's", s.WAL(0).Failed(), s.WAL(1).Failed())
	}
}

// TestDurableSpansStampWALAck: a durable write's span ends with its WAL-ack
// phase in both modes: the reader waits for the flusher's fsync in strict
// mode, and writes the record through itself in relaxed mode.
func TestDurableSpansStampWALAck(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interval time.Duration
	}{
		{"strict", 0},
		{"relaxed", 5 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, Config{
				Shards: 2, Workers: 2, Batch: 4, Unguided: true,
				WALDir: t.TempDir(), FsyncInterval: tc.interval,
			})
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			cl.SetTrace(true)
			const ops = 40
			for i := uint64(0); i < ops; i++ {
				if _, err := cl.Add(i, 1); err != nil {
					t.Fatalf("add %d: %v", i, err)
				}
			}
			spans := s.Observatory().Snapshot().Forced
			if len(spans) != ops {
				t.Fatalf("%d forced spans, want %d", len(spans), ops)
			}
			for _, sp := range spans {
				ev := sp.Events
				if sp.Cause != obs.CauseNone.String() || len(ev) == 0 || ev[len(ev)-1].Phase != "walack" {
					t.Fatalf("span %d: cause %q, events %+v; want a clean span ending in walack", sp.ID, sp.Cause, ev)
				}
			}
		})
	}
}

// gateFsync is a DiskFaults hook that, once armed, holds every fsync until
// release is closed, signalling entered at the first one it holds.
type gateFsync struct {
	armed   atomic.Bool
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newGateFsync() *gateFsync {
	return &gateFsync{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFsync) WriteFault(op uint64, off int64, n int) (int, error) { return n, nil }

func (g *gateFsync) FsyncFault(op uint64) error {
	if g.armed.Load() {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return nil
}

// TestStrictAckWaitsForFsync: in strict mode a write is answered only once
// its record is fsynced — while the fsync is held the client's Add does not
// return — and a crash taken while a reader waits on that fsync does not
// hang on the reader, nor lets it ack the write. A burst's chunks all run
// before its reader waits: the wait is taken once, for the whole burst.
func TestStrictAckWaitsForFsync(t *testing.T) {
	start := func(t *testing.T) (*Server, *gateFsync, chan error) {
		t.Helper()
		g := newGateFsync()
		s := New(Config{Workers: 2, Unguided: true, WALDir: t.TempDir(), DiskFaults: g})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		cl, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		g.armed.Store(true)
		done := make(chan error, 1)
		go func() {
			st, _, err := cl.Do(OpAdd, 1, 1)
			if err == nil && st != StatusOK {
				err = fmt.Errorf("status %d", st)
			}
			done <- err
		}()
		<-g.entered
		select {
		case err := <-done:
			t.Fatalf("Add returned (err %v) while its record's fsync is held", err)
		case <-time.After(50 * time.Millisecond):
		}
		return s, g, done
	}

	t.Run("release", func(t *testing.T) {
		s, g, done := start(t)
		close(g.release)
		if err := <-done; err != nil {
			t.Fatalf("Add after the fsync completed: %v", err)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("burst", func(t *testing.T) {
		g := newGateFsync()
		s := startServer(t, Config{Workers: 2, Unguided: true, WALDir: t.TempDir(), DiskFaults: g})
		fc := attach(s)
		g.armed.Store(true)
		var buf []byte
		for id := uint32(1); id <= 16; id++ {
			buf = AppendRequest(buf, Request{Op: OpAdd, ID: id, Key: uint64(id), Arg: 1})
		}
		fc.in <- buf // two chunks at Batch 8
		<-g.entered
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if commits, _ := s.Router().Stats(); commits == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the burst's second chunk did not run while the first one's fsync was held")
			}
		}
		if got := fc.nframes(); got != 0 {
			t.Fatalf("%d replies written while the fsync is held", got)
		}
		close(g.release)
		fc.await(t, 16)
		if got := fc.nwrites(); got != 1 {
			t.Fatalf("%d writes for one burst of 16, want 1", got)
		}
	})

	t.Run("crash", func(t *testing.T) {
		s, g, done := start(t)
		crashed := make(chan struct{})
		go func() { s.Crash(); close(crashed) }()
		// The log's crash releases the reader's wait: the Add is answered
		// (StatusUnavailable) or its connection closed, never acked.
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("Add acked although its record's fsync never completed")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Add still waiting 5s into the crash")
		}
		// The flusher is still inside the held fsync; once it returns, the
		// crash completes.
		close(g.release)
		select {
		case <-crashed:
		case <-time.After(5 * time.Second):
			t.Fatal("crash hung with a reader waiting on an fsync")
		}
	})
}
