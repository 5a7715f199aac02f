package server

import (
	"io"
	"net"
	"runtime"
	"testing"
)

// TestServedFootprint bounds what a small in-memory server holds live after
// serving untraced traffic: two slots, one shard, 4096 buckets, no WAL and
// no guidance lifecycle (whose profile traces would swamp the reading).
// Two connections, one homed on each slot, serve 10 000 Adds and Gets over
// 128 keys; the reading is the heap growth from before New to after the
// connections close, with the server still referenced. The bound gates
// the observability plane's share: no forced ring before a traced request,
// no span aggregate for a slot or phase that never recorded, and counters
// kept as one block per thread slot.
func TestServedFootprint(t *testing.T) {
	const conns, perConn, window, keys = 2, 5000, 100, 128
	const limit = 152 << 10 // 25% above the ~121 KB measured (linux/amd64)
	var before, after runtime.MemStats
	// Two cycles: the first only moves pooled objects of earlier tests to
	// the pools' victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	s := New(Config{Workers: 2, Shards: 1, Buckets: 4096, Unguided: true})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	for c := 0; c < conns; c++ {
		nc, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		frame := make([]byte, RespFrameLen)
		for sent := 0; sent < perConn; sent += window {
			buf = buf[:0]
			for i := sent; i < sent+window; i++ {
				req := Request{Op: OpAdd, ID: uint32(i + 1), Key: uint64(i % keys), Arg: 1}
				if i%5 == 0 {
					req = Request{Op: OpGet, ID: uint32(i + 1), Key: uint64(i % keys)}
				}
				buf = AppendRequest(buf, req)
			}
			if _, err := nc.Write(buf); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < window; i++ {
				if _, err := io.ReadFull(nc, frame); err != nil {
					t.Fatalf("response %d: %v", sent+i, err)
				}
				if resp, err := DecodeResponse(frame[4:]); err != nil || (resp.Status != StatusOK && resp.Status != StatusNotFound) {
					t.Fatalf("response %d: %+v, %v", sent+i, resp, err)
				}
			}
		}
		_ = nc.Close()
	}
	// The readers exit once their connections close; wait for them so
	// their buffers are garbage, not live.
	s.connMu.Lock()
	for len(s.conns) > 0 {
		s.connMu.Unlock()
		runtime.Gosched()
		s.connMu.Lock()
	}
	s.connMu.Unlock()

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(s)
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d B live in a server after %d untraced ops", live, conns*perConn)
	if live > limit {
		t.Fatalf("a server that served %d untraced ops holds %d B live, over the %d B bound", conns*perConn, live, limit)
	}
}
