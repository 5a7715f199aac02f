package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"gstm"
)

// Client is a synchronous protocol client: one outstanding request per
// Client. It is not safe for concurrent use — the load generator and
// tests open one Client per goroutine, which also gives the server's
// batching real cross-connection queue depth to coalesce.
type Client struct {
	nc    net.Conn
	br    *bufio.Reader
	buf   []byte
	id    uint32
	trace bool
}

// SetTrace toggles the protocol trace-request bit on every subsequent
// request: the server then retains a full variance-observatory span for
// each of this client's operations (the /debug/trace "forced" ring)
// regardless of its sampling rate.
func (c *Client) SetTrace(on bool) { c.trace = on }

// Dial connects to a gstm serve at addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{nc: nc, br: bufio.NewReaderSize(nc, 8*RespFrameLen)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

// Do sends one operation and waits for its response.
func (c *Client) Do(op Op, key, arg uint64) (Status, uint64, error) {
	c.id++
	c.buf = AppendRequest(c.buf[:0], Request{Op: op, ID: c.id, Key: key, Arg: arg, Trace: c.trace})
	return c.roundTrip()
}

// Get reads key ((value, true) when present).
func (c *Client) Get(key uint64) (uint64, bool, error) {
	st, v, err := c.Do(OpGet, key, 0)
	if err != nil {
		return 0, false, err
	}
	switch st {
	case StatusOK:
		return v, true, nil
	case StatusNotFound:
		return 0, false, nil
	default:
		return 0, false, fmt.Errorf("server: get status %d", st)
	}
}

// Put upserts key=val, reporting whether the key already existed.
func (c *Client) Put(key, val uint64) (bool, error) {
	st, v, err := c.Do(OpPut, key, val)
	if err != nil {
		return false, err
	}
	if st != StatusOK {
		return false, fmt.Errorf("server: put status %d", st)
	}
	return v == 1, nil
}

// Add adds delta (signed, two's complement) to key, returning the new
// value.
func (c *Client) Add(key uint64, delta int64) (uint64, error) {
	st, v, err := c.Do(OpAdd, key, uint64(delta))
	if err != nil {
		return 0, err
	}
	if st != StatusOK {
		return 0, fmt.Errorf("server: add status %d", st)
	}
	return v, nil
}

// Del removes key, reporting whether it was present.
func (c *Client) Del(key uint64) (bool, error) {
	st, _, err := c.Do(OpDel, key, 0)
	if err != nil {
		return false, err
	}
	switch st {
	case StatusOK:
		return true, nil
	case StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("server: del status %d", st)
	}
}

// Txn executes ops as one atomic multi-key transaction — across shards
// when the keys home to different shards. The returned value is the last
// sub-op's result (see OpTxn for sub-op semantics). len(ops) must be in
// [1, MaxTxnOps].
func (c *Client) Txn(ops []TxnOp) (Status, uint64, error) {
	if len(ops) == 0 || len(ops) > MaxTxnOps {
		return 0, 0, fmt.Errorf("server: txn with %d ops (want 1..%d)", len(ops), MaxTxnOps)
	}
	c.id++
	c.buf = AppendTxnRequest(c.buf[:0], Request{ID: c.id, Trace: c.trace}, ops)
	return c.roundTrip()
}

// roundTrip writes the encoded request in c.buf and reads its reply.
func (c *Client) roundTrip() (Status, uint64, error) {
	if _, err := c.nc.Write(c.buf); err != nil {
		return 0, 0, err
	}
	var frame [RespFrameLen]byte
	resp, err := readResponse(c.br, frame[:])
	if err != nil {
		return 0, 0, err
	}
	if resp.ID != c.id {
		return 0, 0, fmt.Errorf("server: response id %d for request %d", resp.ID, c.id)
	}
	return resp.Status, resp.Value, nil
}

// readResponse reads one response frame from br into frame, which must
// hold RespFrameLen bytes, and decodes it.
func readResponse(br *bufio.Reader, frame []byte) (Response, error) {
	if _, err := io.ReadFull(br, frame); err != nil {
		return Response{}, err
	}
	if n := binary.BigEndian.Uint32(frame); n != RespFrameLen-4 {
		return Response{}, fmt.Errorf("server: bad response frame length %d", n)
	}
	return DecodeResponse(frame[4:])
}

// Transfer atomically moves amt from one key's balance to another's: two
// adds in one transaction, committed on both home shards or neither.
// Zero-sum by construction, which makes it the oracle-friendly cross-shard
// op for correctness checks (balances always conserve).
func (c *Client) Transfer(from, to uint64, amt int64) error {
	st, _, err := c.Txn([]TxnOp{
		{Op: OpAdd, Key: from, Arg: uint64(-amt)},
		{Op: OpAdd, Key: to, Arg: uint64(amt)},
	})
	if err != nil {
		return err
	}
	if st != StatusOK {
		return fmt.Errorf("server: transfer status %d", st)
	}
	return nil
}

// Watch long-polls key until its value differs from last (or the key
// appears when last is its current absence), returning the new value. The
// call blocks on the wire for as long as the server keeps the watch
// parked — use one Client per concurrent watch. gstm.ErrWouldBlock is
// returned when the server refuses to park (it is draining); the caller
// may poll or retry elsewhere. A server shutting down mid-park surfaces
// as an error wrapping StatusShutdown.
func (c *Client) Watch(key, last uint64) (uint64, error) {
	return c.longPoll(OpWatch, key, last)
}

// WaitKey blocks until key exists, returning its value (immediately when
// already present). Same drain semantics as Watch.
func (c *Client) WaitKey(key uint64) (uint64, error) {
	return c.longPoll(OpWaitKey, key, 0)
}

func (c *Client) longPoll(op Op, key, arg uint64) (uint64, error) {
	st, v, err := c.Do(op, key, arg)
	if err != nil {
		return 0, err
	}
	switch st {
	case StatusOK:
		return v, nil
	case StatusWouldBlock:
		return 0, gstm.ErrWouldBlock
	default:
		return 0, fmt.Errorf("server: watch status %d", st)
	}
}

// Info reads one server fact (see InfoSelector).
func (c *Client) Info(sel InfoSelector) (uint64, error) {
	st, v, err := c.Do(OpInfo, uint64(sel), 0)
	if err != nil {
		return 0, err
	}
	if st != StatusOK {
		return 0, fmt.Errorf("server: info %d status %d", sel, st)
	}
	return v, nil
}
