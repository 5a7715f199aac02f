package server

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"
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

// TestFillBatchWalksChunks drives fillBatch with hand-built chunks on a
// worker that is not running: the batching rule — same kind, disjoint keys,
// at most Batch, a transaction alone — holds across chunk boundaries, the
// task that closes a batch stays under the cursor and leads the next, and a
// chunk goes back to the pool, emptied, exactly when its last task is
// batched.
func TestFillBatchWalksChunks(t *testing.T) {
	s := New(Config{Workers: 1, Batch: 4, Unguided: true})
	defer s.router.Close()
	w := s.workers[0]
	var built []*chunk
	push := func(reqs ...Request) *chunk {
		ch := &chunk{tasks: make([]task, 0, 6)}
		for _, r := range reqs {
			ch.tasks = append(ch.tasks, task{req: r})
		}
		built = append(built, ch)
		w.queue <- ch
		return ch
	}
	get := func(id uint32, k uint64) Request { return Request{Op: OpGet, ID: id, Key: k} }
	put := func(id uint32, k uint64) Request { return Request{Op: OpPut, ID: id, Key: k} }
	// A transaction's Key is its sub-op count; distinct here, so only the
	// batch-of-one rule can keep two adjacent transactions apart.
	txn := func(id uint32) Request { return Request{Op: OpTxn, ID: id, Key: uint64(id)} }
	want := func(step string, ids ...uint32) {
		t.Helper()
		if !w.fillBatch() {
			t.Fatalf("%s: fillBatch reported a stop", step)
		}
		if len(w.batch) != len(ids) {
			t.Fatalf("%s: batch of %d, want ids %v", step, len(w.batch), ids)
		}
		for i, id := range ids {
			if w.batch[i].req.ID != id {
				t.Fatalf("%s: batch[%d] is id %d, want ids %v", step, i, w.batch[i].req.ID, ids)
			}
		}
	}
	returned := func(step string, ch *chunk, yes bool) {
		t.Helper()
		if yes && (len(ch.tasks) != 0 || cap(ch.tasks) != 6 || w.in == ch) {
			t.Fatalf("%s: exhausted chunk not put back emptied with its capacity (len %d cap %d, under cursor %v)",
				step, len(ch.tasks), cap(ch.tasks), w.in == ch)
		}
		if !yes && (len(ch.tasks) == 0 || w.in != ch) {
			t.Fatalf("%s: chunk with tasks left is no longer under the cursor", step)
		}
	}

	// Across a boundary, up to a kind change; the Put stays under the cursor.
	a := push(get(1, 1), get(2, 2))
	b := push(get(3, 3), put(4, 4), put(5, 5))
	want("boundary", 1, 2, 3)
	returned("boundary", a, true)
	returned("boundary", b, false)
	if w.pos != 1 {
		t.Fatalf("cursor at %d, want 1 (the held-over Put)", w.pos)
	}
	want("hold-over leads", 4, 5)
	returned("hold-over leads", b, true)

	// A repeated key closes the batch; the repeat leads the next one.
	c := push(get(6, 1), get(7, 2), get(8, 1), get(9, 3))
	want("repeated key", 6, 7)
	returned("repeated key", c, false)
	want("repeat leads", 8, 9)
	returned("repeat leads", c, true)

	// Chunks of one — many depth-1 connections — coalesce into one batch.
	push(get(10, 1))
	push(get(11, 2))
	push(get(12, 3))
	want("chunks of one", 10, 11, 12)

	// A full batch stops at Batch and leaves the next chunk queued.
	d := push(get(13, 1), get(14, 2), get(15, 3), get(16, 4))
	e := push(get(17, 5), get(18, 6))
	want("full", 13, 14, 15, 16)
	returned("full", d, true)
	if w.in != nil || len(w.queue) != 1 {
		t.Fatalf("full batch took more than Batch: cursor %v, %d chunks queued", w.in, len(w.queue))
	}
	want("after full", 17, 18)
	returned("after full", e, true)

	// A transaction closes an open Get batch, then runs alone.
	f := push(get(19, 1), get(20, 2), txn(21))
	want("txn closes gets", 19, 20)
	returned("txn closes gets", f, false)
	want("txn after gets", 21)
	returned("txn after gets", f, true)

	// A transaction is a batch of one: what follows it waits for the next.
	g := push(txn(22), get(23, 1))
	want("txn alone", 22)
	returned("txn alone", g, false)
	want("get after txn", 23)

	// Two adjacent transactions, across a chunk boundary too, are two batches.
	push(txn(24), txn(25))
	push(txn(26))
	want("first txn", 24)
	want("second txn", 25)
	want("txn of its own chunk", 26)

	// Each chunk went back at most once: none comes out of the pool twice.
	// (The pool may drop a Put, so "exactly once" is pinned by the emptied
	// checks above plus this.)
	seen := map[*chunk]int{}
	for i := 0; i < 4*len(built); i++ {
		seen[chunkPool.Get().(*chunk)]++
	}
	for _, ch := range built {
		if seen[ch] > 1 {
			t.Fatalf("a chunk came out of the pool %d times: put back twice", seen[ch])
		}
	}

	close(s.stop)
	if w.fillBatch() {
		t.Fatal("fillBatch on an empty queue ignored the stop")
	}
}

// TestReaderDispatchesByChunk: 16 Gets delivered by one Read cross to the
// workers as 16/Batch chunks — two hand-offs, two transactions, one Write —
// and a request that arrives after the reader blocked is a chunk of one,
// answered without waiting for company.
func TestReaderDispatchesByChunk(t *testing.T) {
	s := startServer(t, Config{Workers: 2, Unguided: true})
	fc := attach(s)
	counts := func() [3]uint64 {
		return [3]uint64{uint64(s.rr.Load()), s.batches.Load(), s.batchedOps.Load()}
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
	if got, want := counts(), [3]uint64{2, 2, 16}; got != want {
		t.Fatalf("hand-offs, batches, batched ops = %v after 16 Gets at Batch 8, want %v", got, want)
	}

	fc.in <- gets(17, 17) // accepted only once the reader is blocked in Read
	fc.await(t, 17)
	if f := fc.frames(t, 1); len(f) != 1 || f[0].ID != 17 {
		t.Fatalf("second write carried %+v, want id 17 alone", f)
	}
	if got, want := counts(), [3]uint64{3, 3, 17}; got != want {
		t.Fatalf("hand-offs, batches, batched ops = %v after a lone 17th Get, want %v", got, want)
	}
}

// TestNoChunkStrandedByOtherFrames: control frames and a watch that parks,
// interleaved with Gets and a transaction, take their own paths without
// flushing the pending chunk; the transaction rides in the chunk in its
// place among the Gets, and the chunk still goes out when the reader blocks
// — every request but the parked watch is answered.
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
	if got := s.rr.Load(); got != 1 {
		t.Fatalf("%d hand-offs to workers, want the 5 Gets and the transaction in one chunk", got)
	}
	// Gets 1, 3, 5 | transaction 6 | Gets 7, 8: the transaction splits the
	// chunk's Get run, so one worker ran three batches of 3 + 2 + 2 ops.
	if b, ops := s.batches.Load(), s.batchedOps.Load(); b != 3 || ops != 7 {
		t.Fatalf("%d batches of %d ops in all, want 3 of 7: the chunk's six tasks in order", b, ops)
	}
}

// TestCrashReturnsQueuedChunks: chunks a crash finds still queued give back
// their inflight slots and burst counts, so a Shutdown after it has nothing
// to wait for.
func TestCrashReturnsQueuedChunks(t *testing.T) {
	shutdown := func(s *Server) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown after crash: %v (inflight slots were not returned)", err)
		}
	}

	// Workers never started: what the reader hands off stays queued for sure.
	t.Run("queued", func(t *testing.T) {
		s := New(Config{Workers: 2, Unguided: true})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s.ln = ln
		fc := attach(s)
		buf := gets(1, seq(1, 19)...)
		for id := uint32(20); id <= 22; id++ {
			buf = AppendTxnRequest(buf, Request{Op: OpTxn, ID: id}, []TxnOp{
				{Op: OpAdd, Key: 7, Arg: ^uint64(0)}, {Op: OpAdd, Key: 8, Arg: 1}})
		}
		fc.in <- buf // two full chunks and one of three Gets and three transactions
		fc.blocked()
		if got := len(s.workers[0].queue) + len(s.workers[1].queue); got != 3 {
			t.Fatalf("%d chunks queued, want 3", got)
		}
		ch := <-s.workers[0].queue
		b := ch.tasks[0].b
		s.workers[0].queue <- ch
		if got := b.n.Load(); got != 22 {
			t.Fatalf("burst owes %d replies with 22 requests queued", got)
		}
		s.Crash()
		if got := b.n.Load(); got != 0 {
			t.Fatalf("burst still owes %d replies after the crash", got)
		}
		shutdown(s)
	})

	// Live: pipelining clients race the crash; wherever each chunk was —
	// pending, in a send, queued, under a cursor — its slots come back.
	t.Run("live", func(t *testing.T) {
		s := New(Config{Workers: 2, Shards: 2, QueueDepth: 2, Unguided: true})
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
