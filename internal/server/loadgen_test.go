package server

import (
	"testing"
	"time"

	"gstm"
	"gstm/internal/model"
	"gstm/internal/trace"
)

// TestRunLoadFixedWork: every connection performs exactly OpsPerConn
// operations and the run reports the per-connection spread.
func TestRunLoadFixedWork(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	st, err := RunLoad(LoadConfig{
		Addr:       s.Addr().String(),
		Conns:      4,
		OpsPerConn: 100,
		Keys:       32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 400 {
		t.Fatalf("ops = %d, want exactly 4x100", st.Ops)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
	if st.P50us <= 0 || st.Throughput <= 0 {
		t.Fatalf("missing latency/throughput: %+v", st)
	}
}

// TestWatchdogDegradesAdversarialModel: guidance on the serving path is the
// workers' dequeue check, and its watchdog still works. A forced model that
// routes every state the workers produce to a pair that never runs refuses
// every lead; each batch runs anyway and is counted an escape, and the
// escapes trip the watchdog into ModeDegraded under load — after which every
// check passes.
func TestWatchdogDegradesAdversarialModel(t *testing.T) {
	const workers = 2
	s := startServer(t, Config{
		Workers:       workers,
		Unguided:      true,
		ForceGuidance: true,
		Watchdog:      true,
	})
	solo := func(site gstm.TxnID, thread int) trace.Key {
		return trace.NewState(nil, gstm.Pair{Txn: site, Thread: gstm.ThreadID(thread)}.Pack()).Key()
	}
	m := model.New(workers)
	for _, site := range []gstm.TxnID{siteGet, sitePut, siteAdd, siteDel, siteTxn} {
		for w := 0; w < workers; w++ {
			m.AddTransitionKeys(solo(site, w), solo(99, 99))
		}
	}
	if !s.lcs[0].install(m) || s.Mode() != ModeGuided {
		t.Fatalf("adversarial model not installed: mode %v", s.Mode())
	}
	load := LoadConfig{Addr: s.Addr().String(), Conns: 4, OpsPerConn: 200, Keys: 64}
	for deadline := time.Now().Add(30 * time.Second); s.Mode() != ModeDegraded; {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never tripped: mode %v, health %+v", s.Mode(), s.System().Health())
		}
		st, err := RunLoad(load)
		if err != nil {
			t.Fatal(err)
		}
		if st.Errors != 0 {
			t.Fatalf("%d failed operations under the adversarial model", st.Errors)
		}
	}
	h := s.System().Health()
	if h.Watchdog.Trips == 0 || h.GateEscaped == 0 {
		t.Fatalf("degraded without an escape-driven trip: %+v", h)
	}
	if o, ok := s.System().CheckDequeue(gstm.Pair{Txn: siteAdd, Thread: 0}); !ok || o != gstm.GatePass {
		t.Fatalf("a tripped watchdog's check said %v, %v", o, ok)
	}
}

// TestTrainedModelStaysGuidedUnderDefaultWatchdog: the watchdog gstm-server
// arms by default keeps a model trained on the traffic it serves in
// ModeGuided, when that traffic is one the model fits: Puts on uniform keys
// from eight connections, so states are lone commits and either worker is
// a likely next committer. Every batch is checked exactly once, at its lead,
// and nothing is held.
func TestTrainedModelStaysGuidedUnderDefaultWatchdog(t *testing.T) {
	s := startServer(t, Config{
		Workers:       2,
		ProfileOps:    1024,
		ProfileSlices: 2,
		ForceGuidance: true,
		Watchdog:      true,
	})
	load := LoadConfig{Addr: s.Addr().String(), Conns: 8, OpsPerConn: 250, Keys: 1 << 16, PutPct: 100}
	run := func() {
		t.Helper()
		st, err := RunLoad(load)
		if err != nil {
			t.Fatal(err)
		}
		if st.Errors != 0 {
			t.Fatalf("%d failed operations", st.Errors)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); s.Mode() != ModeGuided; run() {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached guided mode (stuck in %v, last trip %v)", s.Mode(), s.System().Health().Watchdog.LastTrip)
		}
	}
	sys := s.System()
	p0, h0, e0 := sys.GateStats()
	// One shard: each batch is one commit.
	b0, _ := sys.Stats()
	for i := 0; i < 8; i++ { // 16000 Puts: over 15 default watchdog windows
		run()
	}
	p, h, e := sys.GateStats()
	p, h, e = p-p0, h-h0, e-e0
	if m, hl := s.Mode(), sys.Health(); m != ModeGuided || hl.Watchdog.Trips != 0 {
		t.Fatalf("mode %v after %d trips (last %v)", m, hl.Watchdog.Trips, hl.Watchdog.LastTrip)
	}
	if b, _ := sys.Stats(); p+h+e != b-b0 {
		t.Fatalf("%d gate decisions for %d batches, want one each", p+h+e, b-b0)
	}
	if h != 0 {
		t.Fatalf("%d decisions held a batch", h)
	}
}
