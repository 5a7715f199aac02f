package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"gstm/internal/server"
)

// inflight is one request awaiting its response. Workers answer out of
// order, so the request's slot number travels in the low byte of the wire id.
type inflight struct {
	op   op
	id   uint32
	t0   time.Time
	busy bool
}

// client is one closed-loop connection: it never has more than window
// requests outstanding and sends the next only as replies free slots.
type client struct {
	nc    net.Conn
	br    *bufio.Reader
	wbuf  []byte
	txn   [2]server.TxnOp
	slots [256]inflight
	free  []uint8
	seq   uint32

	checkGets bool // Gets must return baseValue(key)
	trace     bool // set the protocol trace bit on every request

	// acked[key] counts this connection's acknowledged Adds and transfer
	// credits minus debits: the per-key oracle's expectation.
	acked []int32
	// scan, when non-nil, receives every Get's value by key.
	scan []uint64
	// lat, when non-nil, receives each request's send→reply time in ns.
	lat []uint32
	// sampled, when non-nil, receives every 64th request's send and reply
	// time: the traced run's client.op spans.
	sampled *[][2]time.Time

	attempted, failed, mismatched uint64
}

func newClient(w *workload) *client {
	c := &client{checkGets: !w.mutatesValues()}
	if w.mutatesValues() {
		c.acked = make([]int32, w.keys)
	}
	return c
}

// connect (re)dials addr; the oracle state survives, so a client can follow
// its server across a restart.
func (c *client) connect(addr string) error {
	c.close()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c.nc, c.br = nc, bufio.NewReaderSize(nc, 256*server.RespFrameLen)
	return nil
}

func (c *client) close() {
	if c.nc != nil {
		_ = c.nc.Close()
		c.nc = nil
	}
}

func (c *client) send(o op, now time.Time) {
	slot := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.seq++
	id := c.seq<<8 | uint32(slot)
	c.slots[slot] = inflight{op: o, id: id, t0: now, busy: true}
	c.attempted++
	req := server.Request{ID: id, Key: o.key, Trace: c.trace}
	switch o.kind {
	case opGet:
		req.Op = server.OpGet
	case opPut:
		req.Op, req.Arg = server.OpPut, baseValue(o.key)
	case opAdd:
		req.Op, req.Arg = server.OpAdd, 1
	case opTxn:
		c.txn[0] = server.TxnOp{Op: server.OpAdd, Key: o.key, Arg: ^uint64(0)} // -1
		c.txn[1] = server.TxnOp{Op: server.OpAdd, Key: o.key2, Arg: 1}
		c.wbuf = server.AppendTxnRequest(c.wbuf, req, c.txn[:])
		return
	}
	c.wbuf = server.AppendRequest(c.wbuf, req)
}

// recv reads one response frame and settles the request it answers.
func (c *client) recv() error {
	frame, err := c.br.Peek(server.RespFrameLen)
	if err != nil {
		return err
	}
	resp, err := server.DecodeResponse(frame[4:])
	if err != nil {
		return err
	}
	if _, err := c.br.Discard(server.RespFrameLen); err != nil {
		return err
	}
	in := &c.slots[uint8(resp.ID)]
	if !in.busy || in.id != resp.ID {
		return fmt.Errorf("response id %#x answers no outstanding request", resp.ID)
	}
	in.busy = false
	c.free = append(c.free, uint8(resp.ID))
	if c.lat != nil || c.sampled != nil {
		now := time.Now()
		if c.lat != nil {
			c.lat = append(c.lat, uint32(now.Sub(in.t0)))
		}
		if c.sampled != nil && in.id>>8&63 == 0 {
			*c.sampled = append(*c.sampled, [2]time.Time{in.t0, now})
		}
	}
	if resp.Status != server.StatusOK {
		// Every key is preloaded and never deleted, so NotFound is as wrong
		// as any refusal.
		c.failed++
		return nil
	}
	switch in.op.kind {
	case opGet:
		if c.scan != nil {
			c.scan[in.op.key] = resp.Value
		} else if c.checkGets && resp.Value != baseValue(in.op.key) {
			c.mismatched++
		}
	case opAdd:
		c.acked[in.op.key]++
	case opTxn:
		c.acked[in.op.key]--
		c.acked[in.op.key2]++
	}
	return nil
}

// drive issues ops from src with up to window outstanding until src is
// exhausted or the deadline passes (zero = none), then waits for every
// outstanding reply. It returns the number of acknowledged requests.
func (c *client) drive(window int, deadline time.Time, src func() (op, bool)) (int, error) {
	c.free = c.free[:0]
	for i := window - 1; i >= 0; i-- {
		c.free = append(c.free, uint8(i))
	}
	timed := c.lat != nil || c.sampled != nil || !deadline.IsZero()
	sent, recvd := 0, 0
	issuing := true
	for {
		var now time.Time
		if timed {
			now = time.Now()
			if !deadline.IsZero() && !now.Before(deadline) {
				issuing = false
			}
		}
		c.wbuf = c.wbuf[:0]
		for issuing && sent-recvd < window {
			o, ok := src()
			if !ok {
				issuing = false
				break
			}
			c.send(o, now)
			sent++
		}
		if len(c.wbuf) > 0 {
			if _, err := c.nc.Write(c.wbuf); err != nil {
				return recvd, err
			}
		}
		if sent == recvd {
			if !issuing {
				return recvd, nil
			}
			continue
		}
		if err := c.recv(); err != nil {
			return recvd, err
		}
		recvd++
		for c.br.Buffered() >= server.RespFrameLen {
			if err := c.recv(); err != nil {
				return recvd, err
			}
			recvd++
		}
	}
}

// driveAll runs one drive per client concurrently and returns each one's
// acknowledged count and completion time, plus the wall time of the whole.
func driveAll(cs []*client, window int, dur time.Duration, src func(i int) func() (op, bool)) (ops []int, took []time.Duration, wall time.Duration, err error) {
	ops = make([]int, len(cs))
	took = make([]time.Duration, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	var deadline time.Time
	if dur > 0 {
		deadline = start.Add(dur)
	}
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			ops[i], errs[i] = c.drive(window, deadline, src(i))
			took[i] = time.Since(start)
		}(i, c)
	}
	wg.Wait()
	wall = time.Since(start)
	for i, e := range errs {
		if e != nil {
			return ops, took, wall, fmt.Errorf("connection %d: %w", i, e)
		}
	}
	return ops, took, wall, nil
}
