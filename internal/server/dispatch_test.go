package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gstm/internal/obs"
	"gstm/internal/wal"
)

// feedConn is a recConn that can also be read: every send on in arrives as
// one Read (a delivery must fit the reader's 64-frame buffer), and because in
// is unbuffered a send returns only once the reader is inside Read — it has
// run out of input, ended its burst and is blocked. Close ends the stream.
type feedConn struct {
	recConn
	in    chan []byte
	wrote chan struct{} // poked, without blocking, after every Write
	once  sync.Once
}

func (f *feedConn) Read(p []byte) (int, error) {
	b, ok := <-f.in
	if !ok {
		return 0, io.EOF
	}
	if len(b) > len(p) {
		panic("feedConn: delivery larger than the read buffer")
	}
	return copy(p, b), nil
}

func (f *feedConn) Write(p []byte) (int, error) {
	n, err := f.recConn.Write(p)
	select {
	case f.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (f *feedConn) Close() error {
	f.once.Do(func() { close(f.in) })
	return nil
}

// blocked returns once the reader sits in a Read with nothing to decode: it
// hands over an empty delivery, which bufio answers by reading again.
func (f *feedConn) blocked() { f.in <- nil }

func (f *feedConn) nframes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, w := range f.writes {
		n += len(w) / RespFrameLen
	}
	return n
}

// await blocks until n response frames have been written in total.
func (f *feedConn) await(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for f.nframes() < n {
		select {
		case <-f.wrote:
		case <-deadline:
			t.Fatalf("%d of %d replies written after 5s: a request is stranded", f.nframes(), n)
		}
	}
}

// attach serves a feedConn on s the way acceptLoop serves a socket, so a
// Shutdown or Crash closes it and waits for its reader.
func attach(s *Server) *feedConn {
	fc := &feedConn{in: make(chan []byte), wrote: make(chan struct{}, 1)}
	s.connMu.Lock()
	s.conns[fc] = struct{}{}
	s.connMu.Unlock()
	s.wg.Add(1)
	go func() { defer s.wg.Done(); s.serveConn(fc) }()
	return fc
}

func gets(firstID uint32, keys ...uint64) []byte {
	var buf []byte
	for i, k := range keys {
		buf = AppendRequest(buf, Request{Op: OpGet, ID: firstID + uint32(i), Key: k})
	}
	return buf
}

func seq(lo, n uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = lo + uint64(i)
	}
	return out
}

// TestChunkBatchesInOrder drives worker.run with hand-built chunks on a
// server that is not serving: the segment rule cuts each chunk where a key
// repeats, runs one batch per kind in each segment in the order the kinds
// first appear — all the segment's transactions as one — and carries
// nothing over from one chunk of a burst to the next. Each batch is one
// traced span, led by its first request, so the forced ring lists the
// batches; the results show that a key's operations kept their order.
func TestChunkBatchesInOrder(t *testing.T) {
	s := New(Config{Workers: 1, Batch: 4, Unguided: true})
	defer s.router.Close()
	w := s.workers[0]
	get := func(id uint32, k uint64) task { return task{req: Request{Op: OpGet, ID: id, Key: k, Trace: true}} }
	put := func(id uint32, k uint64) task {
		return task{req: Request{Op: OpPut, ID: id, Key: k, Arg: 1, Trace: true}}
	}
	// A transaction's Key is its sub-op count, not a key: only its sub-ops'
	// keys cut.
	txn := func(id uint32, ops ...TxnOp) task {
		return task{req: Request{Op: OpTxn, ID: id, Key: uint64(len(ops)), Trace: true}, txn: ops}
	}
	transfer := func(id uint32) task {
		return txn(id, TxnOp{Op: OpAdd, Key: 7, Arg: ^uint64(0)}, TxnOp{Op: OpAdd, Key: 8, Arg: 1})
	}
	add := func(k, v uint64) TxnOp { return TxnOp{Op: OpAdd, Key: k, Arg: v} }
	var pend pending
	seen := 0
	// run appends tasks to the burst as its next chunk, runs it and checks
	// the (id, ops) of the batches it was cut into.
	run := func(step string, tasks []task, batches ...[2]int) {
		t.Helper()
		pend.tasks = append(pend.tasks, tasks...)
		w.run(&pend, obs.Now(), 0)
		if len(pend.waits) != 0 || pend.ran != len(pend.tasks) {
			t.Fatalf("%s: %d durability waits on an in-memory server, %d of %d tasks run",
				step, len(pend.waits), pend.ran, len(pend.tasks))
		}
		forced := s.Observatory().Snapshot().Forced[seen:]
		seen += len(forced)
		if len(forced) != len(batches) {
			t.Fatalf("%s: %d batches, want %v (id, ops)", step, len(forced), batches)
		}
		for i, b := range batches {
			if got := [2]int{int(forced[i].ID), forced[i].Ops}; got != b {
				t.Fatalf("%s: batch %d is (id, ops) %v, want %v", step, i, got, b)
			}
		}
	}
	each := func(step string, tasks []task, batches ...[2]int) {
		t.Helper()
		pend.reset()
		run(step, tasks, batches...)
	}

	each("kind change", []task{get(1, 1), get(2, 2), put(3, 3), put(4, 4)}, [2]int{1, 2}, [2]int{3, 2})
	if r := pend.results; r[0].status != StatusNotFound || r[2] != (opResult{value: 0}) {
		t.Fatalf("results %+v: want the Gets of absent keys not found, the first Put an insert", r)
	}
	each("repeated key", []task{get(5, 1), get(6, 2), get(7, 1), get(8, 3)}, [2]int{5, 2}, [2]int{7, 2})
	// A transaction's span counts its two sub-ops.
	each("txn after gets", []task{get(9, 1), get(10, 2), transfer(11)}, [2]int{9, 2}, [2]int{11, 2})
	each("txn first", []task{transfer(12), get(13, 1)}, [2]int{12, 2}, [2]int{13, 1})
	each("txns sharing keys", []task{transfer(14), transfer(15)}, [2]int{14, 2}, [2]int{15, 2})
	// Kinds interleaved on disjoint keys: one Get batch, then both
	// transactions as one, each answering its own last sub-op.
	each("gather by kind", []task{
		get(18, 1), txn(19, add(100, 5), TxnOp{Op: OpPut, Key: 101, Arg: 7}),
		get(20, 2), txn(21, TxnOp{Op: OpPut, Key: 102, Arg: 9}, add(103, 3)),
	}, [2]int{18, 2}, [2]int{19, 4})
	if r := pend.results; r[0].status != StatusNotFound || r[1] != (opResult{value: 7}) ||
		r[2].status != StatusNotFound || r[3] != (opResult{value: 3}) {
		t.Fatalf("gathered results %+v, want [not found, 7, not found, 3]", r)
	}
	// A key's operations keep their order: the Get sees the Put before it.
	each("put then get", []task{put(22, 104), get(23, 104)}, [2]int{22, 1}, [2]int{23, 1})
	if r := pend.results; r[1] != (opResult{value: 1}) {
		t.Fatalf("Get after a Put of one key answered %+v, want the Put's value", r[1])
	}
	// Transactions sharing one key stay two batches, in order: the second
	// sees the first's add. The Get joins the second segment.
	each("txns sharing one key", []task{txn(24, add(105, 1), add(106, 1)), txn(25, add(107, 1), add(108, 1), add(106, 1)), get(26, 3)},
		[2]int{24, 2}, [2]int{25, 3}, [2]int{26, 1})
	if r := pend.results; r[0] != (opResult{value: 1}) || r[1] != (opResult{value: 2}) {
		t.Fatalf("chained transactions answered %+v, want 1 then 2", r[:2])
	}
	// Two chunks of one burst never coalesce: each is its own batch, and
	// the first keeps its result while the second runs.
	each("chunk of one", []task{put(16, 1)}, [2]int{16, 1})
	run("next chunk of one", []task{put(17, 2)}, [2]int{17, 1})
	if r := pend.results; len(r) != 2 || r[0] != (opResult{value: 0}) || r[1] != (opResult{value: 0}) {
		t.Fatalf("burst results %+v, want two inserts", r)
	}
}

// TestMaxSizeTxnChunkCuts: the worst chunk the cutter sees, Batch OpTxns
// of MaxTxnOps sub-ops each, is cut where a transaction repeats an earlier
// one's key — never where one repeats a key of its own — and each segment
// runs as one cross-shard transaction, every OpTxn answering its own last
// sub-op. A run of key-disjoint transactions too large for one WAL record is
// cut before it outgrows one.
func TestMaxSizeTxnChunkCuts(t *testing.T) {
	s := New(Config{Shards: 2, Workers: 1, Unguided: true})
	defer s.router.Close()
	w := s.workers[0]
	var pend pending
	// chunk fills pend with n transactions of MaxTxnOps Adds of 1, on keys
	// base, base+1, ... in order.
	chunk := func(n int, base uint64) {
		pend.reset()
		for i := 0; i < n; i++ {
			ops := make([]TxnOp, MaxTxnOps)
			for j := range ops {
				ops[j] = TxnOp{Op: OpAdd, Key: base + uint64(i*MaxTxnOps+j), Arg: 1}
			}
			pend.tasks = append(pend.tasks, task{req: Request{Op: OpTxn, ID: uint32(i + 1), Key: MaxTxnOps, Trace: true}, txn: ops})
		}
	}

	chunk(s.cfg.Batch, 1000)
	tx2, tx5 := pend.tasks[2].txn, pend.tasks[5].txn
	tx2[1].Key = tx2[0].Key                     // a repeat within one transaction
	tx5[MaxTxnOps-1].Key = tx2[MaxTxnOps-1].Key // a repeat of transaction 2's last key
	w.run(&pend, obs.Now(), 0)
	if !slices.Equal(pend.ends, []int{5, 8}) {
		t.Fatalf("segment ends %v, want [5 8]", pend.ends)
	}
	forced := s.Observatory().Snapshot().Forced
	if len(forced) != 2 || forced[0].ID != 1 || forced[0].Ops != 5*MaxTxnOps || forced[1].ID != 6 || forced[1].Ops != 3*MaxTxnOps {
		t.Fatalf("%d batches %+v, want transactions 1-5 then 6-8 as two", len(forced), forced)
	}
	for i, r := range pend.results {
		want := opResult{value: 1}
		if i == 5 {
			want.value = 2 // ran after transaction 2's add to the same key
		}
		if r != want {
			t.Fatalf("transaction %d answered %+v, want %+v", i+1, r, want)
		}
	}

	n := wal.MaxOps/MaxTxnOps + 10
	chunk(n, 1<<20)
	pend.cut()
	if per := wal.MaxOps / MaxTxnOps; !slices.Equal(pend.ends, []int{per, n}) {
		t.Fatalf("%d key-disjoint transactions of %d sub-ops cut at %v, want [%d %d]: no segment above wal.MaxOps",
			n, MaxTxnOps, pend.ends, per, n)
	}
}

// TestReaderDispatchesByChunk: 16 Gets delivered by one Read run as 16/Batch
// chunks — two batches, two commits, one Write — and a request that arrives
// after the reader blocked is a chunk of one, answered without waiting for
// company.
func TestReaderDispatchesByChunk(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	fc := attach(s)
	commits := func() uint64 {
		c, _ := s.Router().Stats()
		return c
	}

	fc.in <- gets(1, seq(1, 16)...)
	fc.await(t, 16)
	if got := fc.nwrites(); got != 1 {
		t.Fatalf("%d writes for one burst of 16, want 1", got)
	}
	seen := map[uint32]bool{}
	for _, r := range fc.frames(t, 0) {
		if r.ID == 0 || r.ID > 16 || seen[r.ID] {
			t.Fatalf("bad or duplicate reply %+v", r)
		}
		seen[r.ID] = true
	}
	if got := commits(); got != 2 {
		t.Fatalf("%d commits after 16 Gets at Batch 8, want 2", got)
	}

	fc.in <- gets(17, 17) // accepted only once the reader is blocked in Read
	fc.await(t, 17)
	if f := fc.frames(t, 1); len(f) != 1 || f[0].ID != 17 {
		t.Fatalf("second write carried %+v, want id 17 alone", f)
	}
	if got := commits(); got != 3 {
		t.Fatalf("%d commits after a lone 17th Get, want 3", got)
	}
}

// TestNoChunkStrandedByOtherFrames: control frames and a watch that parks,
// interleaved with Gets and a transaction, take their own paths without
// flushing the pending chunk; the transaction rides in the chunk in its
// place among the Gets, and the chunk still runs when the reader blocks —
// every request but the parked watch is answered.
func TestNoChunkStrandedByOtherFrames(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	fc := attach(s)
	info := func(id uint32) Request { return Request{Op: OpInfo, ID: id, Key: uint64(InfoShards)} }
	var buf []byte
	buf = append(buf, gets(1, 1)...)
	buf = AppendRequest(buf, info(2))
	buf = append(buf, gets(3, 2)...)
	buf = AppendRequest(buf, Request{Op: OpWatch, ID: 4, Key: 9001})
	buf = append(buf, gets(5, 3)...)
	buf = AppendTxnRequest(buf, Request{Op: OpTxn, ID: 6}, []TxnOp{
		{Op: OpAdd, Key: 7, Arg: ^uint64(0)}, {Op: OpAdd, Key: 8, Arg: 1}})
	buf = append(buf, gets(7, 4, 5)...)
	buf = AppendRequest(buf, info(9))
	fc.in <- buf
	fc.await(t, 8)
	fc.blocked()
	waitParked(t, s, 1)
	seen := map[uint32]bool{}
	for i := 0; i < fc.nwrites(); i++ {
		for _, r := range fc.frames(t, i) {
			if r.ID == 4 || r.ID == 0 || r.ID > 9 || seen[r.ID] {
				t.Fatalf("unexpected or duplicate reply %+v", r)
			}
			seen[r.ID] = true
		}
	}
	if len(seen) != 8 {
		t.Fatalf("%d distinct replies, want 8 (all but the parked watch)", len(seen))
	}
	// Gets 1, 3, 5 | transaction 6 | Gets 7, 8: one chunk of six tasks on
	// disjoint keys, so one segment: one batch of the five Gets, then the
	// transaction — two batches, one commit each.
	if commits, _ := s.Router().Stats(); commits != 2 {
		t.Fatalf("%d commits in all, want 2: one Get batch and one transaction batch", commits)
	}
}

// TestPipelinedPutThenGetKeepsOrder: a connection's chunks run one after
// another on its home slot, so a Put that closes one chunk is visible to a
// Get of the same key that opens the next — never reordered past it, on any
// of the rounds. At Batch 2 each four-frame round is two chunks: [Get, Put
// k] and [Get k, Get].
func TestPipelinedPutThenGetKeepsOrder(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Batch: 2, Unguided: true})
	fc := attach(s)
	const rounds, k = 200, 42
	for r := uint32(1); r <= rounds; r++ {
		id := 4 * (r - 1)
		var buf []byte
		buf = AppendRequest(buf, Request{Op: OpGet, ID: id + 1, Key: 1})
		buf = AppendRequest(buf, Request{Op: OpPut, ID: id + 2, Key: k, Arg: uint64(r)})
		buf = AppendRequest(buf, Request{Op: OpGet, ID: id + 3, Key: k})
		buf = AppendRequest(buf, Request{Op: OpGet, ID: id + 4, Key: 2})
		fc.in <- buf
		fc.await(t, int(id)+4)
		var got *Response
		for i := fc.nwrites() - 1; i >= 0 && got == nil; i-- {
			for _, resp := range fc.frames(t, i) {
				if resp.ID == id+3 {
					got = &resp
				}
			}
		}
		if got == nil || got.Status != StatusOK || got.Value != uint64(r) {
			t.Fatalf("round %d: Get after the pipelined Put answered %+v, want value %d", r, got, r)
		}
	}
}

// TestMoreConnsThanSlots: connections outnumber the slots; every pipelined
// request is answered, each connection's spans carry one thread — its home
// slot, for its life — and with several slots the connections are spread
// over all of them. Every request sets the trace bit, and the run's
// conns*window*rounds requests fit the forced ring, so it keeps every span.
func TestMoreConnsThanSlots(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := startServer(t, Config{Workers: workers, Unguided: true})
			const conns, window, rounds = 8, 16, 2
			var wg sync.WaitGroup
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					nc, err := net.Dial("tcp", s.Addr().String())
					if err != nil {
						t.Error(err)
						return
					}
					defer nc.Close()
					_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
					frame := make([]byte, RespFrameLen)
					for r := 0; r < rounds; r++ {
						var buf []byte
						for i := 0; i < window; i++ {
							// Request ids carry the connection: c<<16 | seq.
							id := uint32(c)<<16 | uint32(r*window+i+1)
							buf = AppendRequest(buf, Request{Op: OpAdd, ID: id, Key: uint64(c*window + i), Arg: 1, Trace: true})
						}
						if _, err := nc.Write(buf); err != nil {
							t.Error(err)
							return
						}
						for i := 0; i < window; i++ {
							if _, err := io.ReadFull(nc, frame); err != nil {
								t.Errorf("conn %d: reply %d of round %d: %v", c, i, r, err)
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			thread := map[uint32]int{}
			slots := map[int]bool{}
			for _, sp := range s.Observatory().Snapshot().Forced {
				c := sp.ID >> 16
				if w, ok := thread[c]; ok && w != sp.Worker {
					t.Fatalf("conn %d ran as threads %d and %d", c, w, sp.Worker)
				}
				thread[c] = sp.Worker
				slots[sp.Worker] = true
			}
			if len(thread) != conns || len(slots) != workers {
				t.Fatalf("spans of %d connections on %d slots, want %d on %d", len(thread), len(slots), conns, workers)
			}
		})
	}
}

// waitSlotWaiter returns once some goroutine is blocked taking a slot's
// mutex in worker.run.
func waitSlotWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, "(*worker).run(") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no reader waiting for its slot after 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashMidChunk: whatever a crash catches readers doing — running a
// chunk, waiting for their slot, holding decoded requests not yet run — each
// ends its burst, so the inflight count reads zero and a Shutdown after the
// crash has nothing to wait for.
func TestCrashMidChunk(t *testing.T) {
	shutdown := func(s *Server) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown after crash: %v (a burst never ended)", err)
		}
	}

	// A reader waits for its slot with a whole burst decoded and buffered:
	// the crash lands, then the slot frees. The chunk that had its turn runs
	// to its end and is answered; the rest is dropped unrun.
	t.Run("slot-wait", func(t *testing.T) {
		s := New(Config{Workers: 2, Unguided: true})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s.ln = ln
		for _, w := range s.workers {
			w.mu.Lock()
		}
		fc := attach(s)
		fc.in <- gets(1, seq(1, 19)...) // two full chunks and one of three
		waitSlotWaiter(t)
		crashed := make(chan struct{})
		go func() { s.Crash(); close(crashed) }()
		for !s.stopped.Load() {
			time.Sleep(time.Millisecond)
		}
		for _, w := range s.workers {
			w.mu.Unlock()
		}
		select {
		case <-crashed:
		case <-time.After(5 * time.Second):
			t.Fatal("crash still waiting for the reader 5s after its slot freed")
		}
		if got := fc.nframes(); got != 8 {
			t.Fatalf("%d replies written, want the 8 of the chunk that held the slot's turn", got)
		}
		shutdown(s)
	})

	// Live: pipelining clients race the crash; wherever each reader was —
	// decoding, waiting for its slot, running, answering — its burst ends.
	t.Run("live", func(t *testing.T) {
		s := New(Config{Workers: 2, Shards: 2, Unguided: true})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		var started, wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			started.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				nc, err := net.Dial("tcp", s.Addr().String())
				if err != nil {
					started.Done()
					t.Error(err)
					return
				}
				defer nc.Close()
				buf := gets(1, seq(1, 48)...)
				frame := make([]byte, RespFrameLen)
				for first := true; ; first = false {
					if _, err := nc.Write(buf); err != nil {
						return
					}
					for i := 0; i < 48; i++ {
						if _, err := io.ReadFull(nc, frame); err != nil {
							return
						}
						if first && i == 0 {
							started.Done()
						}
					}
				}
			}()
		}
		started.Wait()
		s.Crash()
		wg.Wait()
		shutdown(s)
	})
}
