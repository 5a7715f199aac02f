package server

import (
	"io"
	"net"
	"strings"
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

// TestLoadRejectsOutOfOrderReply: a data-only connection's replies come
// back in request order, so a load connection matches each reply against
// its oldest outstanding request. A stub server that answers two pipelined
// requests swapped must fail the run rather than have the replies
// credited to the wrong requests.
func TestLoadRejectsOutOfOrderReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var reqs [2]Request
		frame := make([]byte, ReqFrameLen)
		for i := range reqs {
			if _, err := io.ReadFull(nc, frame); err != nil {
				return
			}
			if reqs[i], err = DecodeRequest(frame[4:]); err != nil {
				return
			}
		}
		var out []byte
		for _, r := range []Request{reqs[1], reqs[0]} {
			out = AppendResponse(out, Response{ID: r.ID, Status: StatusOK})
		}
		_, _ = nc.Write(out)
		_, _ = io.Copy(io.Discard, nc) // hold the connection open until the client gives up
	}()
	_, err = RunLoad(LoadConfig{Addr: ln.Addr().String(), Conns: 1, OpsPerConn: 2, Window: 2})
	if err == nil || !strings.Contains(err.Error(), "out of request order") {
		t.Fatalf("RunLoad accepted swapped replies: err = %v", err)
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

// TestTrainedModelStaysGuidedUnderDefaultWatchdog: the watchdog `gstm serve`
// arms by default keeps a model trained on the traffic it serves in
// ModeGuided, when that traffic is one the model fits: Puts on uniform
// keys, so states are lone commits and either slot is a likely next
// committer. Every batch is checked exactly once, at its lead, and nothing
// is held.
//
// The profiled Puts come in an order the client fixes: two connections,
// one homed on each slot, take turns two Puts at a time, so each state is
// followed by its own slot and by the other equally often, and both are
// in its destination set on any schedule. Profiling the eight-connection
// load instead leaves the share of same-slot successors to the OS and Go
// schedulers: 0.34 on an idle 2-core box, but 0.50-0.85 with one core
// busy. Above 0.8 the other slot's 1-0.8 falls under the Tfactor-4 cut
// (0.8/4), the guided load escapes at every slot switch, and the
// watchdog's first window trips for good.
func TestTrainedModelStaysGuidedUnderDefaultWatchdog(t *testing.T) {
	s := startServer(t, Config{
		Workers:       2,
		ProfileOps:    1024,
		ProfileSlices: 2,
		ForceGuidance: true,
		Watchdog:      true,
	})
	var turns [2]*Client // sequential dials: homed on slots 0 and 1
	for i := range turns {
		cl, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		turns[i] = cl
	}
	key := uint64(0)
	for deadline := time.Now().Add(30 * time.Second); s.Mode() != ModeGuided; {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached guided mode (stuck in %v, last trip %v)", s.Mode(), s.System().Health().Watchdog.LastTrip)
		}
		for _, cl := range []*Client{turns[0], turns[0], turns[1], turns[1]} {
			key = (key + 1) % (1 << 16)
			if _, err := cl.Put(key, key); err != nil {
				t.Fatal(err)
			}
		}
	}
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
