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

// TestOneWriterPerBurst: the reader path writes 2 000 bursts of 1–64
// frames (answer, then one write) while four goroutines send immediate
// replies. Each burst and each immediate reply is exactly one Write, no
// Write is torn, and every frame is written exactly once.
func TestOneWriterPerBurst(t *testing.T) {
	const bursts, repliers, immediate = 2000, 4, 500
	s := New(Config{Workers: 1, Unguided: true})
	defer s.router.Close()
	rc := &recConn{}
	c := &conn{nc: rc}
	var wg sync.WaitGroup
	for g := 0; g < repliers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < immediate; i++ {
				id := uint32(1<<31 + g*immediate + i)
				c.reply(Response{ID: id, Value: uint64(id) * 3})
			}
		}(g)
	}
	r := xrand.NewThread(22, 0)
	var pend pending
	var out []byte
	var id uint32
	for i := 0; i < bursts; i++ {
		for k := r.Intn(64) + 1; k > 0; k-- {
			id++
			pend.tasks = append(pend.tasks, task{req: Request{ID: id}})
			pend.results = append(pend.results, opResult{value: uint64(id) * 3})
		}
		pend.ran = len(pend.tasks)
		out = s.answer(0, out[:0], &pend)
		c.write(out)
		pend.reset()
		pend.results = pend.results[:0]
	}
	wg.Wait()

	if got, want := rc.nwrites(), bursts+repliers*immediate; got != want {
		t.Fatalf("%d writes, want %d: one per burst plus one per immediate reply", got, want)
	}
	seen := map[uint32]bool{}
	for i := 0; i < rc.nwrites(); i++ {
		for _, resp := range rc.frames(t, i) {
			if resp.ID == 0 || seen[resp.ID] || resp.Value != uint64(resp.ID)*3 {
				t.Fatalf("write %d: bad or duplicate frame %+v", i, resp)
			}
			seen[resp.ID] = true
		}
	}
	if got, want := len(seen), int(id)+repliers*immediate; got != want {
		t.Fatalf("%d frames written, want %d", got, want)
	}
}
