package server

import (
	"net"
	"sync"
	"testing"

	"gstm/internal/xrand"
)

// recConn records every Write. The embedded nil net.Conn makes any other
// method panic: the reply path must do nothing to the socket but write.
type recConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (r *recConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.writes = append(r.writes, append([]byte(nil), p...))
	r.mu.Unlock()
	return len(p), nil
}

func (r *recConn) nwrites() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.writes)
}

// frames decodes write i into its responses, failing on a torn frame.
func (r *recConn) frames(t *testing.T, i int) []Response {
	t.Helper()
	r.mu.Lock()
	p := r.writes[i]
	r.mu.Unlock()
	if len(p) == 0 || len(p)%RespFrameLen != 0 {
		t.Fatalf("write %d: %d bytes is not a whole number of frames", i, len(p))
	}
	var out []Response
	for ; len(p) > 0; p = p[RespFrameLen:] {
		resp, err := DecodeResponse(p[4:RespFrameLen])
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		out = append(out, resp)
	}
	return out
}

// take plays the reader admitting one request into b.
func take(b *burst) *burst {
	b.n.Add(1)
	return b
}

// TestBurstOneWrite: a reader hold plus n counted replies settled from two
// goroutines end in exactly one Write carrying all n frames, whichever side
// settles last. Moving the flush back to per-batch (or per-reply) fails the
// Write count.
func TestBurstOneWrite(t *testing.T) {
	const n = 32
	for _, readerLast := range []bool{false, true} {
		rc := &recConn{}
		c := &conn{nc: rc}
		b := openBurst()
		for i := 0; i < n; i++ {
			take(b)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += 2 {
					c.reply(Response{ID: uint32(i + 1), Value: uint64(i)}, b)
				}
			}(g)
		}
		if !readerLast {
			c.settle(b) // the reader found nothing more buffered long ago
		}
		wg.Wait()
		if readerLast {
			if got := rc.nwrites(); got != 0 {
				t.Fatalf("readerLast: %d writes while the reader still holds the burst", got)
			}
			c.settle(b)
		}
		if got := rc.nwrites(); got != 1 {
			t.Fatalf("readerLast=%v: %d writes for one burst, want 1", readerLast, got)
		}
		seen := map[uint32]bool{}
		for _, resp := range rc.frames(t, 0) {
			if seen[resp.ID] || resp.ID == 0 || resp.ID > n || resp.Value != uint64(resp.ID-1) {
				t.Fatalf("readerLast=%v: bad or duplicate frame %+v", readerLast, resp)
			}
			seen[resp.ID] = true
		}
		if len(seen) != n {
			t.Fatalf("readerLast=%v: %d frames written, want %d", readerLast, len(seen), n)
		}
	}
}

// TestNilBurstFlushesNow: a reply outside any burst is written at once and
// carries the frames buffered before it, in arrival order; the burst's own
// settlement then writes only what came after.
func TestNilBurstFlushesNow(t *testing.T) {
	rc := &recConn{}
	c := &conn{nc: rc}
	b := openBurst()
	c.reply(Response{ID: 1}, take(b))
	c.reply(Response{ID: 2}, take(b))
	if got := rc.nwrites(); got != 0 {
		t.Fatalf("%d writes before the burst settled", got)
	}
	c.reply(Response{ID: 99, Status: StatusWouldBlock}, nil)
	if got := rc.nwrites(); got != 1 {
		t.Fatalf("%d writes after a nil-burst reply, want 1", got)
	}
	if f := rc.frames(t, 0); len(f) != 3 || f[0].ID != 1 || f[1].ID != 2 || f[2].ID != 99 || f[2].Status != StatusWouldBlock {
		t.Fatalf("nil-burst write carried %+v, want ids 1,2,99 in order", f)
	}
	c.reply(Response{ID: 3}, take(b))
	c.settle(b)
	if got := rc.nwrites(); got != 2 {
		t.Fatalf("%d writes after settlement, want 2", got)
	}
	if f := rc.frames(t, 1); len(f) != 1 || f[0].ID != 3 {
		t.Fatalf("settlement wrote %+v, want id 3 alone", f)
	}
	c.settle(nil) // nothing buffered: no empty write
	if got := rc.nwrites(); got != 2 {
		t.Fatalf("empty flush wrote: %d writes", got)
	}
}

// TestBurstHammer overlaps thousands of bursts of 1–64 replies: one reader
// admits and hands off, four repliers settle concurrently. Every frame is
// written exactly once, no write is torn, no burst costs more than one
// Write, and nothing stays buffered once all are settled.
func TestBurstHammer(t *testing.T) {
	const bursts = 4000
	rc := &recConn{}
	c := &conn{nc: rc}
	type item struct {
		id uint32
		b  *burst
	}
	queue := make(chan item, 256)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				c.reply(Response{ID: it.id, Value: uint64(it.id) * 3}, it.b)
			}
		}()
	}
	r := xrand.NewThread(22, 0)
	var id uint32
	for i := 0; i < bursts; i++ {
		b := openBurst()
		for k := r.Intn(64) + 1; k > 0; k-- {
			id++
			queue <- item{id, take(b)}
		}
		c.settle(b)
	}
	close(queue)
	wg.Wait()

	if got := rc.nwrites(); got > bursts {
		t.Fatalf("%d writes for %d bursts", got, bursts)
	}
	seen := make([]bool, id+1)
	for i := 0; i < rc.nwrites(); i++ {
		for _, resp := range rc.frames(t, i) {
			if resp.ID == 0 || resp.ID > id || seen[resp.ID] || resp.Value != uint64(resp.ID)*3 {
				t.Fatalf("write %d: bad or duplicate frame %+v", i, resp)
			}
			seen[resp.ID] = true
		}
	}
	for i := uint32(1); i <= id; i++ {
		if !seen[i] {
			t.Fatalf("reply %d of %d never written", i, id)
		}
	}
	if len(c.out) != 0 {
		t.Fatalf("%d bytes left buffered after every burst settled", len(c.out))
	}
}

// TestBurstRecycleExact: a record that comes back from the pool starts its
// new life with the reader's count alone, and flushes only when the new
// life's own counts are settled.
func TestBurstRecycleExact(t *testing.T) {
	rc := &recConn{}
	c := &conn{nc: rc}
	past := map[*burst]bool{}
	reused := 0
	for i := 0; i < 1000; i++ {
		b := openBurst()
		if past[b] {
			reused++
		}
		past[b] = true
		if got := b.n.Load(); got != 1 {
			t.Fatalf("life %d: burst opened with count %d, want 1", i, got)
		}
		c.reply(Response{ID: 1}, take(b))
		c.reply(Response{ID: 2}, take(b))
		take(b)     // a third request, admitted and abandoned below
		c.settle(b) // the reader's hold; the third request is still owed
		if got := rc.nwrites(); got != i {
			t.Fatalf("life %d: %d writes with a reply still owed, want %d", i, got, i)
		}
		c.settle(b) // that request is abandoned: the last count flushes
		if got := rc.nwrites(); got != i+1 {
			t.Fatalf("life %d: %d writes after settlement, want %d", i, got, i+1)
		}
	}
	if reused == 0 {
		t.Fatal("the pool never handed a record back: recycling is untested")
	}
}
