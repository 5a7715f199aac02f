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

// TestBenchModesEndToEnd drives the guided-vs-unguided pipeline against a
// small server: fixed-work load carries it through the lifecycle flip,
// then unguided/guided pairs alternate via the control plane.
// CtlModeGuided re-installs the trained model without re-profiling, and
// gate decisions accrue only while the server is guided.
func TestBenchModesEndToEnd(t *testing.T) {
	s := startServer(t, Config{
		Workers:       2,
		ProfileOps:    64,
		ProfileSlices: 2,
		ForceGuidance: true,
	})
	load := LoadConfig{Addr: s.Addr().String(), Conns: 4, OpsPerConn: 200, Keys: 32}
	ctl, err := Dial(load.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	mode := func() ServingMode {
		m, err := ctl.Info(InfoMode)
		if err != nil {
			t.Fatal(err)
		}
		return ServingMode(m)
	}
	run := func() {
		st, err := RunLoad(load)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ops != 800 {
			t.Fatalf("run ops = %d, want 4x200", st.Ops)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for m := mode(); m != ModeGuided && m != ModeDegraded; m = mode() {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached guided mode (stuck in %v)", m)
		}
		run()
	}

	gateDecisions := func() uint64 {
		passed, held, _ := s.System().GateStats()
		return passed + held
	}
	for pair := 0; pair < 2; pair++ {
		if err := ctl.Ctl(CtlModeUnguided, 0); err != nil {
			t.Fatal(err)
		}
		g0 := gateDecisions()
		run()
		if d := gateDecisions() - g0; d != 0 {
			t.Fatalf("pair %d: %d gate decisions while unguided, want 0", pair, d)
		}
		if err := ctl.Ctl(CtlModeGuided, 0); err != nil {
			t.Fatal(err)
		}
		if m := mode(); m != ModeGuided && m != ModeDegraded {
			t.Fatalf("pair %d: mode after CtlModeGuided = %v, want guided or degraded", pair, m)
		}
		g0 = gateDecisions()
		run()
		if gateDecisions() == g0 {
			t.Fatalf("pair %d: no gate decisions while re-guided", pair)
		}
	}
}

// TestCtlModeGuidedBeforeTraining: re-installing a model before one was
// ever trained must fail cleanly with StatusUnguidable.
func TestCtlModeGuidedBeforeTraining(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, _, err := cl.Do(OpCtl, uint64(CtlModeGuided), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusUnguidable {
		t.Fatalf("status = %d, want StatusUnguidable", st)
	}
	if mode, err := cl.Info(InfoMode); err != nil || ServingMode(mode) != ModeUnguided {
		t.Fatalf("mode = %v (err %v), want unguided", ServingMode(mode), err)
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
	if !s.lcs[0].warmStart(m) || s.Mode() != ModeGuided {
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
	b0 := s.batches.Load()
	for i := 0; i < 8; i++ { // 16000 Puts: over 15 default watchdog windows
		run()
	}
	p, h, e := sys.GateStats()
	p, h, e = p-p0, h-h0, e-e0
	if m, hl := s.Mode(), sys.Health(); m != ModeGuided || hl.Watchdog.Trips != 0 {
		t.Fatalf("mode %v after %d trips (last %v)", m, hl.Watchdog.Trips, hl.Watchdog.LastTrip)
	}
	if b := s.batches.Load() - b0; p+h+e != b {
		t.Fatalf("%d gate decisions for %d batches, want one each", p+h+e, b)
	}
	if h != 0 {
		t.Fatalf("%d decisions held a batch", h)
	}
}
