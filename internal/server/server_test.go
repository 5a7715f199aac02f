package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gstm/internal/telemetry"
	"gstm/internal/xrand"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestStoppedServerLeavesTelemetry: a server's shard Systems leave the
// process-wide telemetry registry when it stops, by either road, so the
// registry does not keep every server ever started reachable.
func TestStoppedServerLeavesTelemetry(t *testing.T) {
	before := len(telemetry.Gather().Components)
	for _, crash := range []bool{false, true} {
		s := startServer(t, Config{Workers: 1, Shards: 7, Unguided: true})
		if got := len(telemetry.Gather().Components); got <= before {
			t.Fatalf("crash=%v: %d components with a 7-shard server up, %d before it", crash, got, before)
		}
		if crash {
			s.Crash()
		} else if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := len(telemetry.Gather().Components); got != before {
			t.Fatalf("crash=%v: %d components after the server stopped, want %d", crash, got, before)
		}
	}
}

// TestWALQueueDepthSeries: each durable shard's log backlog is a series of
// that shard's telemetry — on /metrics and in the component's /debug/vars
// JSON — and it leaves with the shard when the server stops, by either
// road. An in-memory server has no such series.
func TestWALQueueDepthSeries(t *testing.T) {
	scrape := func() string {
		t.Helper()
		var buf bytes.Buffer
		if err := telemetry.WritePrometheus(&buf, telemetry.Gather()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	const family = "gstm_wal_queue_depth"

	mem := startServer(t, Config{Shards: 2, Workers: 1, Unguided: true})
	if out := scrape(); strings.Contains(out, family) {
		t.Fatalf("in-memory server exports %s:\n%s", family, out)
	}
	if err := mem.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, crash := range []bool{false, true} {
		s := startServer(t, Config{Shards: 2, Workers: 1, Unguided: true,
			WALDir: t.TempDir(), FsyncInterval: 5 * time.Millisecond})
		out := scrape()
		for _, c := range []string{"shard0", "shard1"} {
			if !strings.Contains(out, family+`{component="`+c+`"} `) {
				t.Fatalf("crash=%v: no %s series for %s:\n%s", crash, family, c, out)
			}
		}

		rec := httptest.NewRecorder()
		telemetry.Handler(telemetry.Gather).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
		var vars struct {
			Gstm struct {
				Components []map[string]any `json:"components"`
			} `json:"gstm"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
			t.Fatal(err)
		}
		withDepth := 0
		for _, c := range vars.Gstm.Components {
			if _, ok := c["wal_queue_depth"]; ok {
				withDepth++
			}
		}
		if withDepth != 2 {
			t.Fatalf("crash=%v: %d /debug/vars components carry wal_queue_depth, want 2", crash, withDepth)
		}

		if crash {
			s.Crash()
		} else if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if out := scrape(); strings.Contains(out, family) {
			t.Fatalf("crash=%v: %s still exported after the server stopped:\n%s", crash, family, out)
		}
	}
}

// TestServerSequentialOracle hammers one server from concurrent clients and
// checks the committed state against a sequential model: shared keys take
// only commutative Adds (final value = sum of acknowledged deltas), and
// each client owns a private key it mutates with Put/Add/Del, tracked
// exactly by a local oracle.
func TestServerSequentialOracle(t *testing.T) {
	s := startServer(t, Config{Workers: 4, Batch: 8, Unguided: true})
	addr := s.Addr().String()

	const (
		clients   = 8
		opsPer    = 400
		sharedLen = 4
	)
	type oracle struct {
		present bool
		val     uint64
		shared  [sharedLen]uint64 // this client's contribution to each shared key
	}
	oracles := make([]oracle, clients)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			o := &oracles[ci]
			priv := uint64(1000 + ci) // disjoint per client
			r := xrand.NewThread(7, ci)
			for i := 0; i < opsPer; i++ {
				switch r.Intn(4) {
				case 0: // shared commutative add
					k := uint64(r.Intn(sharedLen))
					d := uint64(r.Intn(10) + 1)
					if _, err := cl.Add(k, int64(d)); err != nil {
						errc <- err
						return
					}
					o.shared[k] += d
				case 1: // private put
					v := r.Uint64() >> 1
					existed, err := cl.Put(priv, v)
					if err != nil {
						errc <- err
						return
					}
					if existed != o.present {
						errc <- fmt.Errorf("client %d: put existed=%v, oracle %v", ci, existed, o.present)
						return
					}
					o.present, o.val = true, v
				case 2: // private add
					nv, err := cl.Add(priv, 3)
					if err != nil {
						errc <- err
						return
					}
					var want uint64
					if o.present {
						want = o.val + 3
					} else {
						want = 3
					}
					if nv != want {
						errc <- fmt.Errorf("client %d: add got %d, oracle %d", ci, nv, want)
						return
					}
					o.present, o.val = true, want
				default: // private del
					removed, err := cl.Del(priv)
					if err != nil {
						errc <- err
						return
					}
					if removed != o.present {
						errc <- fmt.Errorf("client %d: del removed=%v, oracle %v", ci, removed, o.present)
						return
					}
					o.present, o.val = false, 0
				}
				// Private reads must always agree with the oracle mid-run:
				// no other client touches priv.
				if i%16 == 0 {
					v, ok, err := cl.Get(priv)
					if err != nil {
						errc <- err
						return
					}
					if ok != o.present || (ok && v != o.val) {
						errc <- fmt.Errorf("client %d: get (%d,%v), oracle (%d,%v)", ci, v, ok, o.val, o.present)
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Quiesced: check shared keys against the summed oracle and private
	// keys against their clients' oracles.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for k := 0; k < sharedLen; k++ {
		var want uint64
		for ci := range oracles {
			want += oracles[ci].shared[k]
		}
		got, ok, err := cl.Get(uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != want {
			t.Fatalf("shared key %d: got (%d,%v), want %d", k, got, ok, want)
		}
	}
	for ci := range oracles {
		o := &oracles[ci]
		got, ok, err := cl.Get(uint64(1000 + ci))
		if err != nil {
			t.Fatal(err)
		}
		if ok != o.present || (ok && got != o.val) {
			t.Fatalf("private key %d: got (%d,%v), oracle (%d,%v)", ci, got, ok, o.val, o.present)
		}
	}
	if commits, _ := s.Router().Stats(); commits == 0 {
		t.Fatal("no commits counted")
	}
}

// TestServerGuideFlipUnderLoad drives live traffic through the full
// lifecycle — profiling slices, background training, hot-swap into guided
// mode — while clients keep mutating, then re-checks correctness on the
// far side of the flip.
func TestServerGuideFlipUnderLoad(t *testing.T) {
	s := startServer(t, Config{
		Workers:       2,
		Batch:         4,
		ProfileOps:    64,
		ProfileSlices: 2,
		ForceGuidance: true, // tiny traces may not pass the analyzer; the flip is what's under test
	})
	addr := s.Addr().String()
	if got := s.Mode(); got != ModeProfiling {
		t.Fatalf("mode at start = %v, want profiling", got)
	}

	const clients = 4
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	totals := make([]uint64, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			r := xrand.NewThread(11, ci)
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				if _, err := cl.Add(uint64(r.Intn(8)), 1); err != nil {
					errc <- err
					return
				}
				totals[ci]++
			}
		}(ci)
	}

	ctl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		mode := s.Mode()
		if mode == ModeGuided || mode == ModeDegraded {
			break
		}
		if time.Now().After(deadline) {
			close(stopLoad)
			wg.Wait()
			t.Fatalf("server never reached guided mode (stuck in %v)", mode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !s.System().Guided() {
		t.Fatal("Mode reports guided but the system gate is not installed")
	}

	// Keep serving guided for a moment, then stop and check the sum.
	time.Sleep(50 * time.Millisecond)
	close(stopLoad)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	var want uint64
	for _, n := range totals {
		want += n
	}
	var got uint64
	for k := 0; k < 8; k++ {
		if v, ok, err := ctl.Get(uint64(k)); err != nil {
			t.Fatal(err)
		} else if ok {
			got += v
		}
	}
	if got != want {
		t.Fatalf("sum across keys = %d, want %d acknowledged adds", got, want)
	}
}

// TestServerPipelinedBatching writes many disjoint-key requests into the
// socket before reading any response (the synchronous Client cannot), and
// checks that (a) responses come back complete and in order for the
// single-worker server, and (b) the worker actually coalesced multiple
// operations into single transactions.
func TestServerPipelinedBatching(t *testing.T) {
	s := startServer(t, Config{Workers: 1, Batch: 8, Unguided: true})
	addr := s.Addr().String()

	deadline := time.Now().Add(10 * time.Second)
	for {
		c0, _ := s.Router().Stats()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		const n = 256
		var buf []byte
		for i := 0; i < n; i++ {
			buf = AppendRequest(buf, Request{Op: OpAdd, ID: uint32(i + 1), Key: uint64(i), Arg: 1})
		}
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, RespFrameLen)
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(nc, frame); err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			resp, err := DecodeResponse(frame[4:])
			if err != nil {
				t.Fatal(err)
			}
			if resp.ID != uint32(i+1) {
				t.Fatalf("single-worker pipeline reordered: response %d has id %d", i, resp.ID)
			}
			if resp.Status != StatusOK {
				t.Fatalf("response %d: status %d", i, resp.Status)
			}
		}
		_ = nc.Close()

		// One shard: each batch commits once.
		c1, _ := s.Router().Stats()
		if c1-c0 < n {
			return // at least one transaction carried >1 operation
		}
		if time.Now().After(deadline) {
			t.Fatalf("no coalescing observed: %d batches for %d ops", c1-c0, n)
		}
	}
}

// TestServerGracefulShutdown checks that Shutdown answers in-flight work,
// then refuses new connections.
func TestServerGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 2, Unguided: true})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Add(1, 5); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	// Idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("close after shutdown: %v", err)
	}
}

// TestServerMalformedFrameDropsConnection: a garbage length prefix, or a
// well-framed request with the retired op byte 5, must kill only that
// connection, not the server; a retired OpInfo selector is answered with
// StatusBadRequest on a connection that stays up.
func TestServerMalformedFrameDropsConnection(t *testing.T) {
	s := startServer(t, Config{Workers: 1, Unguided: true})
	addr := s.Addr().String()

	retired := AppendRequest(nil, Request{Op: OpGet, ID: 1, Key: 2})
	retired[4] = byte(opRetired)
	for name, frame := range map[string][]byte{
		"length prefix": {0xFF, 0xFF, 0xFF, 0xFF, 0},
		"op 5":          retired,
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		one := make([]byte, 1)
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Read(one); err == nil {
			t.Fatalf("connection survived a bad %s", name)
		}
		_ = nc.Close()
	}

	// Server is still healthy.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	if st, _, err := cl.Do(OpInfo, 0, 0); err != nil || st != StatusBadRequest {
		t.Fatalf("retired info selector 0: status %d (err %v), want bad request", st, err)
	}
	if n, err := cl.Info(InfoShards); err != nil || n != 1 {
		t.Fatalf("InfoShards = %d (err %v), want 1", n, err)
	}
}

// livenessBurst builds one pipelined burst as a single buffer: a Put (it
// opens the burst, so a drain from here on waits for the reader), an OpInfo
// (answered at once — any reply proves the reader has the burst and has
// opened it), an OpWatch on an absent key that must park, then
// Gets/Puts/Adds over both shards and two OpTxn transfers. The keys the Gets
// read are preloaded over a second connection first: requests of one burst
// run in no promised order across workers, so a Get may well overtake the
// burst's own Put of its key. Returns the frames and the watch's id.
func livenessBurst(t *testing.T, s *Server) (buf []byte, ids []uint32, watchID uint32) {
	t.Helper()
	const watchKey = 9001
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for k := uint64(1); k <= 8; k++ {
		if _, err := cl.Put(k, 100); err != nil {
			t.Fatal(err)
		}
	}
	next := func() uint32 { ids = append(ids, uint32(len(ids)+1)); return ids[len(ids)-1] }
	buf = AppendRequest(buf, Request{Op: OpPut, ID: next(), Key: 200, Arg: 1})
	buf = AppendRequest(buf, Request{Op: OpInfo, ID: next(), Key: uint64(InfoShards)})
	watchID = next()
	buf = AppendRequest(buf, Request{Op: OpWatch, ID: watchID, Key: watchKey})
	homes := map[int]bool{}
	for k := uint64(1); k <= 8; k++ {
		homes[s.Router().HomeOf(k)] = true
		buf = AppendRequest(buf, Request{Op: OpPut, ID: next(), Key: k, Arg: 100})
		buf = AppendRequest(buf, Request{Op: OpAdd, ID: next(), Key: k + 100, Arg: 1})
		buf = AppendRequest(buf, Request{Op: OpGet, ID: next(), Key: k})
	}
	if len(homes) != 2 {
		t.Fatalf("burst keys live on shards %v, want both", homes)
	}
	for _, pair := range [][2]uint64{{1, 2}, {3, 4}} {
		buf = AppendTxnRequest(buf, Request{Op: OpTxn, ID: next()}, []TxnOp{
			{Op: OpAdd, Key: pair[0], Arg: ^uint64(0)}, {Op: OpAdd, Key: pair[1], Arg: 1}})
	}
	return buf, ids, watchID
}

// readReplies reads n response frames, failing on a duplicate or unknown id
// or when the deadline passes first (a reply held back shows up here).
func readReplies(t *testing.T, nc net.Conn, n int, ids []uint32, got map[uint32]Status) {
	t.Helper()
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame := make([]byte, RespFrameLen)
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(nc, frame); err != nil {
			t.Fatalf("reply %d of %d: %v (answered so far: %d of %d requests)", i+1, n, err, len(got), len(ids))
		}
		resp, err := DecodeResponse(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := got[resp.ID]; dup || resp.ID == 0 || int(resp.ID) > len(ids) {
			t.Fatalf("reply id %d is duplicate or unknown", resp.ID)
		}
		got[resp.ID] = resp.Status
	}
}

// TestReplyLiveness: burst coalescing must never hold a reply behind a
// parked watch, nor lose one to a drain. In memory the reader waits for
// nothing; with a relaxed WAL it writes its chunks' records through itself;
// with a strict WAL it waits for the flusher's fsync.
func TestReplyLiveness(t *testing.T) {
	for _, name := range []string{"memory", "wal", "wal-relaxed"} {
		config := func(t *testing.T) Config {
			cfg := Config{Workers: 2, Shards: 2, Unguided: true}
			if name != "memory" {
				cfg.WALDir = t.TempDir()
			}
			if name == "wal-relaxed" {
				cfg.FsyncInterval = 5 * time.Millisecond
			}
			return cfg
		}
		t.Run(name+"/parked-watch", func(t *testing.T) {
			s := startServer(t, config(t))
			nc, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			buf, ids, watchID := livenessBurst(t, s)
			if _, err := nc.Write(buf); err != nil {
				t.Fatal(err)
			}
			// Everything but the watch is answered while it stays parked: a
			// watch counted into the burst would stall this read to its deadline.
			got := map[uint32]Status{}
			readReplies(t, nc, len(ids)-1, ids, got)
			for id, st := range got {
				if id == watchID || st != StatusOK {
					t.Fatalf("reply id %d status %d while the watch (id %d) is parked", id, st, watchID)
				}
			}
			waitParked(t, s, 1)
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Put(9001, 7); err != nil {
				t.Fatal(err)
			}
			readReplies(t, nc, 1, ids, got)
			if st, ok := got[watchID]; !ok || st != StatusOK {
				t.Fatalf("watch reply: status %d, answered %v", st, ok)
			}
		})
		t.Run(name+"/drain", func(t *testing.T) {
			s := startServer(t, config(t))
			nc, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			buf, ids, watchID := livenessBurst(t, s)
			if _, err := nc.Write(buf); err != nil {
				t.Fatal(err)
			}
			// The first reply means the reader holds the whole burst and has
			// opened it; drain while it is still working through it.
			got := map[uint32]Status{}
			readReplies(t, nc, 1, ids, got)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			readReplies(t, nc, len(ids)-1, ids, got)
			for id, st := range got {
				refused := st == StatusShutdown || (id == watchID && st == StatusWouldBlock)
				if st != StatusOK && !refused {
					t.Fatalf("reply id %d: status %d, want OK or a drain refusal", id, st)
				}
			}
		})
	}
}
