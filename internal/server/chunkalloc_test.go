//go:build !race

package server

import (
	"net"
	"testing"

	"gstm/internal/obs"
)

// discardConn accepts every Write without keeping it.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// payloads splits a run of request frames into their payloads.
func payloads(buf []byte) [][]byte {
	var out [][]byte
	for len(buf) > 0 {
		n := int(buf[0])<<24 | int(buf[1])<<16 | int(buf[2])<<8 | int(buf[3])
		out = append(out, buf[4:4+n])
		buf = buf[4+n:]
	}
	return out
}

// TestReaderChunkZeroAlloc is the allocation gate run by CI's bench-smoke:
// once warm, the reader's own share of a chunk costs no heap allocation —
// neither decoding a burst into it, transaction sub-ops included, nor
// cutting it into key-disjoint segments, nor settling a run chunk and
// writing its replies — and neither does an immediate reply. (The engine's
// Run calls in between are the commit path's business; their floors are
// gated at the root package.) The race detector's instrumentation
// allocates on its own, hence this file's build tag.
func TestReaderChunkZeroAlloc(t *testing.T) {
	s := New(Config{Workers: 1, Unguided: true})
	defer s.router.Close()
	w := s.workers[0]
	c := &conn{nc: discardConn{}}
	var pend pending

	// 16 requests: Gets with a transfer after every third.
	var burst []byte
	for id := uint32(1); id <= 16; id++ {
		if id%4 == 0 {
			burst = AppendTxnRequest(burst, Request{Op: OpTxn, ID: id}, []TxnOp{
				{Op: OpAdd, Key: uint64(id), Arg: ^uint64(0)}, {Op: OpAdd, Key: uint64(id) + 1, Arg: 1}})
			continue
		}
		burst = append(burst, gets(id, uint64(id))...)
	}
	add := func(ps [][]byte) {
		for _, p := range ps {
			req, txn, err := pend.decode(p)
			if err != nil {
				t.Fatal(err)
			}
			pend.tasks = append(pend.tasks, task{req: req, txn: txn})
		}
	}
	decode := payloads(burst)
	if n := testing.AllocsPerRun(100, func() { add(decode); pend.reset() }); n != 0 {
		t.Fatalf("decoding a burst into a warm chunk allocates %.1f times", n)
	}
	// Cutting that interleaved Get/OpTxn chunk into segments reuses the
	// reader's key set.
	add(decode)
	if n := testing.AllocsPerRun(100, pend.cut); n != 0 {
		t.Fatalf("cutting a warm Get/OpTxn chunk allocates %.1f times", n)
	}

	var out []byte
	answer := func(step string) {
		t.Helper()
		w.run(&pend, obs.Now(), 0)
		if n := testing.AllocsPerRun(100, func() {
			out = s.answer(int(w.id), out[:0], &pend)
			c.write(out)
		}); n != 0 {
			t.Fatalf("answering a run %s chunk and writing its replies allocates %.1f times", step, n)
		}
		pend.reset()
	}
	answer("Get/OpTxn")
	add(payloads(gets(1, seq(1, uint64(s.cfg.Batch))...)))
	answer("Get")
	if n := testing.AllocsPerRun(100, func() { c.reply(Response{ID: 1}) }); n != 0 {
		t.Fatalf("an immediate reply allocates %.1f times", n)
	}
}
