package server

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gstm/internal/xrand"
)

// keysOn returns n keys homed on shard sh of s, ascending from 1000.
func keysOn(s *Server, sh, n int) []uint64 {
	var out []uint64
	for k := uint64(1000); len(out) < n; k++ {
		if s.Router().HomeOf(k) == sh {
			out = append(out, k)
		}
	}
	return out
}

// TestTxnSemantics walks a table of OpTxn requests over a 2-shard server,
// each step seeing the state the previous ones left: every transaction
// answers OK with its last sub-op's value, a sub-Put reports its argument, a
// sub-Get of an absent key reads 0, a sub-Del of an absent key is a no-op,
// and InfoKeys follows every create and delete — on one shard and across
// both.
func TestTxnSemantics(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Workers: 2, Unguided: true})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a, b := keysOn(s, 0, 3), keysOn(s, 1, 2)
	get := func(k uint64) TxnOp { return TxnOp{Op: OpGet, Key: k} }
	put := func(k, v uint64) TxnOp { return TxnOp{Op: OpPut, Key: k, Arg: v} }
	add := func(k, v uint64) TxnOp { return TxnOp{Op: OpAdd, Key: k, Arg: v} }
	del := func(k uint64) TxnOp { return TxnOp{Op: OpDel, Key: k} }

	steps := []struct {
		name  string
		ops   []TxnOp
		value uint64
		keys  uint64 // InfoKeys afterwards
	}{
		{"single/put-then-get", []TxnOp{put(a[0], 5), get(a[0])}, 5, 1},
		{"single/get-absent", []TxnOp{get(a[1])}, 0, 1},
		{"single/del-absent", []TxnOp{del(a[1])}, 0, 1},
		{"single/put-twice", []TxnOp{put(a[2], 1), put(a[2], 2)}, 2, 2},
		{"cross/add-then-put-new", []TxnOp{add(a[0], 3), put(b[0], 7)}, 7, 3},
		{"cross/put-existing-then-get", []TxnOp{put(b[0], 9), get(a[0])}, 8, 3},
		{"cross/get-absent-last", []TxnOp{add(b[0], 1), get(b[1])}, 0, 3},
		{"cross/del-then-create", []TxnOp{del(a[0]), add(b[1], 4)}, 4, 3},
		{"cross/del-then-get-deleted", []TxnOp{del(b[0]), get(a[0])}, 0, 2},
		{"cross/del-absent-then-put", []TxnOp{del(a[0]), put(b[0], 6)}, 6, 3},
	}
	for _, st := range steps {
		status, v, err := cl.Txn(st.ops)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if status != StatusOK || v != st.value {
			t.Fatalf("%s: status %d value %d, want OK and %d", st.name, status, v, st.value)
		}
		if n, err := cl.Info(InfoKeys); err != nil || n != st.keys {
			t.Fatalf("%s: InfoKeys %d (err %v), want %d", st.name, n, err, st.keys)
		}
	}

	want := map[uint64]int64{a[0]: -1, a[1]: -1, a[2]: 2, b[0]: 6, b[1]: 4}
	for k, v := range want {
		got, ok, err := cl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0 && ok {
			t.Fatalf("key %d holds %d, want absent", k, got)
		}
		if v >= 0 && (!ok || got != uint64(v)) {
			t.Fatalf("key %d holds %d (present %v), want %d", k, got, ok, v)
		}
	}
}

// transferMix drives conns pipelining connections, each sending n requests
// in windows of 16: transfers of 1 between two of keys [0, keys), mixed
// with Gets. It returns the net change the acknowledged transfers made to
// each key; a transfer answered with anything but OK fails the test.
func transferMix(t *testing.T, addr string, conns, n, keys int) map[uint64]int64 {
	t.Helper()
	var mu sync.Mutex
	moved := map[uint64]int64{}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			r := xrand.NewThread(41, c)
			sent := map[uint32][2]uint64{}
			var buf []byte
			frame := make([]byte, RespFrameLen)
			for id := 1; id <= n; {
				buf = buf[:0]
				lo := id
				for ; id <= n && id < lo+16; id++ {
					if r.Intn(2) == 0 {
						buf = AppendRequest(buf, Request{Op: OpGet, ID: uint32(id), Key: uint64(r.Intn(keys))})
						continue
					}
					from, to := uint64(r.Intn(keys)), uint64(r.Intn(keys))
					if from == to {
						to = (to + 1) % uint64(keys)
					}
					sent[uint32(id)] = [2]uint64{from, to}
					buf = AppendTxnRequest(buf, Request{Op: OpTxn, ID: uint32(id)}, []TxnOp{
						{Op: OpAdd, Key: from, Arg: ^uint64(0)}, {Op: OpAdd, Key: to, Arg: 1}})
				}
				if _, err := nc.Write(buf); err != nil {
					t.Error(err)
					return
				}
				for i := lo; i < id; i++ {
					if _, err := io.ReadFull(nc, frame); err != nil {
						t.Error(err)
						return
					}
					resp, err := DecodeResponse(frame[4:])
					if err != nil {
						t.Error(err)
						return
					}
					x, ok := sent[resp.ID]
					if !ok {
						continue
					}
					if resp.Status != StatusOK {
						t.Errorf("conn %d: transfer %d answered status %d", c, resp.ID, resp.Status)
						continue
					}
					mu.Lock()
					moved[x[0]]--
					moved[x[1]]++
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return moved
}

// checkTransfers asserts that every key of [0, keys) holds exactly what the
// acknowledged transfers moved, that those keys span both shards, and that
// the keyspace balances to zero.
func checkTransfers(t *testing.T, s *Server, keys int, moved map[uint64]int64) {
	t.Helper()
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	homes := map[int]bool{}
	for k := uint64(0); k < uint64(keys); k++ {
		v, _, err := cl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if int64(v) != moved[k] {
			t.Fatalf("key %d (shard %d) holds %d, acknowledged transfers moved %d", k, s.Router().HomeOf(k), int64(v), moved[k])
		}
		if moved[k] != 0 {
			homes[s.Router().HomeOf(k)] = true
		}
	}
	if len(homes) != 2 {
		t.Fatalf("transfers moved balance on shards %v only, want both", homes)
	}
	if total, err := VerifyBalance(s.Addr().String(), keys); err != nil || total != 0 {
		t.Fatalf("balance %d (err %v), want 0", total, err)
	}
}

// TestTxnTransferMix: four pipelining connections interleave transfers with
// Gets over two shards. Every acknowledged transfer lands whole, the
// keyspace balances, and some transfers really crossed shards.
func TestTxnTransferMix(t *testing.T) {
	const keys = 64
	s := startServer(t, Config{Shards: 2, Workers: 2, Unguided: true})
	moved := transferMix(t, s.Addr().String(), 4, 2000, keys)
	checkTransfers(t, s, keys, moved)
	var xc uint64
	for sh := 0; sh < s.Shards(); sh++ {
		xc += s.Router().System(sh).Telemetry().XShardCommits.Load()
	}
	if xc == 0 {
		t.Fatal("gstm_xshard_commits_total is 0 after a transfer mix over two shards")
	}
}

// TestTxnTransferMixRecovers: the same mix with the WAL on, then Crash and
// a restart on the same directory. Every transfer was acknowledged before
// the crash, so recovery must replay each one on both of its shards.
func TestTxnTransferMixRecovers(t *testing.T) {
	const keys = 64
	cfg := Config{Shards: 2, Workers: 2, Unguided: true, WALDir: t.TempDir(), FsyncInterval: 5 * time.Millisecond}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	moved := transferMix(t, s.Addr().String(), 4, 1000, keys)
	s.Crash()

	s2 := New(cfg)
	if err := s2.Start(); err != nil {
		t.Fatalf("recovery start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	})
	checkTransfers(t, s2, keys, moved)
}

// TestTxnRunsOnAWorker: a traced OpTxn's span names the worker that ran it —
// one of the pool's threads, not a thread beyond it.
func TestTxnRunsOnAWorker(t *testing.T) {
	const workers = 2
	s := startServer(t, Config{Shards: 2, Workers: workers, Unguided: true, TraceSampleEvery: 1})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTrace(true)
	a, b := keysOn(s, 0, 1)[0], keysOn(s, 1, 1)[0]
	for i := 0; i < 8; i++ {
		if err := cl.Transfer(a, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for _, sp := range s.Observatory().Snapshot().Forced {
		if Op(sp.Op) != OpTxn {
			continue
		}
		n++
		if sp.Worker < 0 || sp.Worker >= workers {
			t.Fatalf("transaction %d ran as thread %d, want a worker in [0, %d)", sp.ID, sp.Worker, workers)
		}
		if sp.Ops != 2 || sp.Cause != "none" {
			t.Fatalf("transaction %d: span with %d ops, cause %q; want 2 ops, committed", sp.ID, sp.Ops, sp.Cause)
		}
	}
	if n != 8 {
		t.Fatalf("%d forced transaction spans, want 8", n)
	}
}

// TestTxnSpanRecordsGate: once both shards are guided, a traced cross-shard
// OpTxn's span shows the gate phase. The transaction passes every
// participant's gate in the same attempt loop a single-shard transaction
// uses, and that loop records the wait on the span.
func TestTxnSpanRecordsGate(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Workers: 2, ProfileOps: 48, ProfileSlices: 2, ForceGuidance: true, TraceSampleEvery: 1})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a, b := keysOn(s, 0, 1)[0], keysOn(s, 1, 1)[0]
	for deadline := time.Now().Add(30 * time.Second); !s.Router().System(0).Guided() || !s.Router().System(1).Guided(); {
		if time.Now().After(deadline) {
			t.Fatalf("shards never both guided (modes %v, %v)", s.ShardMode(0), s.ShardMode(1))
		}
		for _, k := range []uint64{a, b} {
			if _, err := cl.Add(k, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.SetTrace(true)
	for i := 0; i < 4; i++ {
		if err := cl.Transfer(a, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for _, sp := range s.Observatory().Snapshot().Forced {
		if Op(sp.Op) != OpTxn {
			continue
		}
		n++
		gated := false
		for _, e := range sp.Events {
			gated = gated || e.Phase == "gate"
		}
		if !gated {
			t.Fatalf("transaction %d on a guided server: no gate phase in %+v", sp.ID, sp.Events)
		}
	}
	if n != 4 {
		t.Fatalf("%d forced transaction spans, want 4", n)
	}
}
