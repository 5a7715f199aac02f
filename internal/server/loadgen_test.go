package server

import (
	"testing"
	"time"
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
