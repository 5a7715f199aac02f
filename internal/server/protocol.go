// Package server is gstm's network-facing transactional serving layer: a
// length-prefixed binary KV protocol decoded per connection, whose reader
// runs the connection's requests itself on a thread slot fixed at accept —
// slots map 1:1 onto STM ThreadIDs, so the Thread State Automaton trained on
// live traffic stays meaningful — and disjoint-key request batching that
// coalesces a chunk of up to Batch pipelined operations into few
// transactions. The server drives the paper's full lifecycle
// over live traffic: serve unguided while profiling, build and analyze
// the TSA in the background, and hot-swap into guided mode when the model
// passes (watchdog armed). See DESIGN.md "Serving layer".
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op is a request operation code.
type Op uint8

const (
	// OpGet reads Key; the response carries the value (StatusNotFound when
	// absent). Get batches run on TL2's read-only fast path.
	OpGet Op = 1
	// OpPut stores Arg under Key; the response value is 1 when the key
	// already existed, 0 when it was created.
	OpPut Op = 2
	// OpAdd adds Arg (two's-complement signed) to Key's value, inserting
	// Arg when absent; the response carries the new value. Adds commute,
	// which makes them the oracle-friendly op for correctness tests.
	OpAdd Op = 3
	// OpDel removes Key (StatusNotFound when absent).
	OpDel Op = 4
	// opRetired (5) is never reassigned, so an old client's control request
	// cannot be read as something else: DecodeRequest rejects it like any
	// unknown op.
	opRetired Op = 5
	// OpInfo reads one server fact: Key selects an InfoSelector; the
	// response carries the value (StatusBadRequest for any other selector).
	// Bypasses the STM.
	OpInfo Op = 6
	// OpWatch long-polls Key for a change: it blocks while the key is
	// absent or its value equals Arg (the client's last-seen value), and
	// responds with the new value once a commit changes it. Served by a
	// blocking transaction parked on the key's cells — no server-side
	// polling. During graceful drain a parked watch completes with
	// StatusShutdown; a newly arriving one gets StatusWouldBlock.
	OpWatch Op = 7
	// OpWaitKey blocks until Key exists, responding with its value
	// (immediately when already present). Arg is ignored. Same long-poll
	// and drain semantics as OpWatch.
	OpWaitKey Op = 8
	// OpTxn executes a multi-key transaction: up to MaxTxnOps sub-operations
	// applied atomically — all of them commit or none do, even when their
	// keys home to different shards (the cross-shard commit protocol; see
	// DESIGN.md "Cross-shard commit"). The 21-byte request header carries
	// the sub-op count in Key (Arg is reserved, must be 0), followed by
	// count 17-byte sub-operations: op u8 | key u64 | arg u64. Sub-ops are
	// OpGet/OpPut/OpAdd/OpDel with unconditional semantics: a sub-Get of an
	// absent key reads 0 and a sub-Del of an absent key is a no-op, so a
	// transaction never fails on absence. The single response carries the
	// last sub-op's value. OpTxn frames are the protocol's only
	// variable-length requests, dispatched before the fixed-size decode
	// (DecodeTxnRequest).
	OpTxn Op = 9
)

// InfoSelector values travel in the Key field of an OpInfo request.
// Selectors 0-5 and 7-9 are retired and answer StatusBadRequest.
type InfoSelector uint64

// InfoShards reads the server's shard count.
const InfoShards InfoSelector = 6

// Status is a response status code. The server maps gstm's
// ErrCanceled onto StatusCanceled. Codes 3 and 4 are retired.
type Status uint8

const (
	StatusOK         Status = 0
	StatusNotFound   Status = 1
	StatusCanceled   Status = 2
	StatusBadRequest Status = 5
	StatusShutdown   Status = 6
	// StatusUnavailable: the operation's durability could not be promised —
	// the shard's write-ahead log refused or failed to acknowledge the
	// record. The mutation may or may not have executed in memory; it was
	// never acked, so recovery makes no promise about it either way.
	StatusUnavailable Status = 7
	// StatusWouldBlock: the wire mapping of gstm.ErrWouldBlock — a watch
	// (or other blocking op) could not park, e.g. because it arrived while
	// the server was draining. The state is unchanged; the client may retry
	// against another replica or poll.
	StatusWouldBlock Status = 8
)

// Wire format: every frame is a 4-byte big-endian payload length followed
// by the payload. Requests and responses are fixed-size, so the decode
// path allocates nothing and the encode path is a plain append.
//
//	request payload  (21 B): op u8 | id u32 | key u64 | arg u64
//	response payload (13 B): id u32 | status u8 | value u64
const (
	reqPayloadLen  = 1 + 4 + 8 + 8
	respPayloadLen = 4 + 1 + 8

	// ReqFrameLen and RespFrameLen are full frame sizes including the
	// length prefix, for buffer sizing.
	ReqFrameLen  = 4 + reqPayloadLen
	RespFrameLen = 4 + respPayloadLen

	// MaxFrame bounds accepted payload lengths; anything larger is a
	// protocol error, so a corrupt prefix cannot make the reader allocate
	// or block on gigabytes.
	MaxFrame = 1 << 10

	// txnOpLen is one OpTxn sub-operation: op u8 | key u64 | arg u64.
	txnOpLen = 1 + 8 + 8

	// MaxTxnOps bounds sub-operations per OpTxn request so the largest
	// transaction frame still fits MaxFrame (21 + 59*17 = 1024).
	MaxTxnOps = (MaxFrame - reqPayloadLen) / txnOpLen
)

// TraceBit is the high bit of the wire op byte: a client sets it to demand
// a full span trace for the request regardless of the observatory's
// sampling rate. DecodeRequest strips it into Request.Trace, so op codes
// stay confined to the low 7 bits.
const TraceBit = 0x80

// Request is one decoded client operation.
type Request struct {
	Op    Op
	ID    uint32 // echoed verbatim in the response
	Key   uint64
	Arg   uint64
	Trace bool // client set the wire trace bit (see TraceBit)
}

// Response is one server reply.
type Response struct {
	ID     uint32
	Status Status
	Value  uint64
}

// ErrShortFrame reports a request payload of the wrong size.
var ErrShortFrame = errors.New("server: request payload has wrong length")

// ErrBadOp reports an unknown operation code.
var ErrBadOp = errors.New("server: unknown op")

// DecodeRequest decodes one request payload (the bytes after the length
// prefix). It allocates nothing and never retains buf.
func DecodeRequest(buf []byte) (Request, error) {
	if len(buf) != reqPayloadLen {
		return Request{}, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(buf))
	}
	r := Request{
		Op:    Op(buf[0] &^ TraceBit),
		ID:    binary.BigEndian.Uint32(buf[1:5]),
		Key:   binary.BigEndian.Uint64(buf[5:13]),
		Arg:   binary.BigEndian.Uint64(buf[13:21]),
		Trace: buf[0]&TraceBit != 0,
	}
	if r.Op < OpGet || r.Op > OpWaitKey || r.Op == opRetired {
		return Request{}, fmt.Errorf("%w: %d", ErrBadOp, r.Op)
	}
	return r, nil
}

// AppendRequest appends r's full frame (length prefix + payload) to dst.
func AppendRequest(dst []byte, r Request) []byte {
	var b [ReqFrameLen]byte
	binary.BigEndian.PutUint32(b[0:4], reqPayloadLen)
	b[4] = byte(r.Op)
	if r.Trace {
		b[4] |= TraceBit
	}
	binary.BigEndian.PutUint32(b[5:9], r.ID)
	binary.BigEndian.PutUint64(b[9:17], r.Key)
	binary.BigEndian.PutUint64(b[17:25], r.Arg)
	return append(dst, b[:]...)
}

// TxnOp is one sub-operation of an OpTxn multi-key transaction: Op is one
// of OpGet/OpPut/OpAdd/OpDel, Key its target, Arg its argument (ignored
// for Get/Del).
type TxnOp struct {
	Op  Op
	Key uint64
	Arg uint64
}

// DecodeTxnRequest decodes one OpTxn request payload. The header decodes
// like a fixed request (op|id|key|arg) with the sub-op count in Key; the
// sub-ops are appended to dst (pass a reused slice to avoid allocating).
// It never retains buf.
func DecodeTxnRequest(buf []byte, dst []TxnOp) (Request, []TxnOp, error) {
	if len(buf) < reqPayloadLen {
		return Request{}, dst, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(buf))
	}
	r := Request{
		Op:    Op(buf[0] &^ TraceBit),
		ID:    binary.BigEndian.Uint32(buf[1:5]),
		Key:   binary.BigEndian.Uint64(buf[5:13]),
		Arg:   binary.BigEndian.Uint64(buf[13:21]),
		Trace: buf[0]&TraceBit != 0,
	}
	if r.Op != OpTxn {
		return Request{}, dst, fmt.Errorf("%w: %d", ErrBadOp, r.Op)
	}
	n := int(r.Key)
	if r.Key == 0 || r.Key > MaxTxnOps || len(buf) != reqPayloadLen+n*txnOpLen {
		return Request{}, dst, fmt.Errorf("%w: txn with %d ops in %d bytes", ErrShortFrame, r.Key, len(buf))
	}
	for i := 0; i < n; i++ {
		b := buf[reqPayloadLen+i*txnOpLen:]
		op := TxnOp{
			Op:  Op(b[0]),
			Key: binary.BigEndian.Uint64(b[1:9]),
			Arg: binary.BigEndian.Uint64(b[9:17]),
		}
		if op.Op < OpGet || op.Op > OpDel {
			return Request{}, dst, fmt.Errorf("%w: txn sub-op %d", ErrBadOp, op.Op)
		}
		dst = append(dst, op)
	}
	return r, dst, nil
}

// AppendTxnRequest appends an OpTxn request's full frame (length prefix +
// header + sub-ops) to dst. The header's Key field is overwritten with
// len(ops); Arg is zeroed.
func AppendTxnRequest(dst []byte, r Request, ops []TxnOp) []byte {
	payload := reqPayloadLen + len(ops)*txnOpLen
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(payload))
	dst = append(dst, b[:4]...)
	hdr := byte(OpTxn)
	if r.Trace {
		hdr |= TraceBit
	}
	dst = append(dst, hdr)
	binary.BigEndian.PutUint32(b[0:4], r.ID)
	dst = append(dst, b[:4]...)
	binary.BigEndian.PutUint64(b[:], uint64(len(ops)))
	dst = append(dst, b[:]...)
	binary.BigEndian.PutUint64(b[:], 0)
	dst = append(dst, b[:]...)
	for _, op := range ops {
		dst = append(dst, byte(op.Op))
		binary.BigEndian.PutUint64(b[:], op.Key)
		dst = append(dst, b[:]...)
		binary.BigEndian.PutUint64(b[:], op.Arg)
		dst = append(dst, b[:]...)
	}
	return dst
}

// DecodeResponse decodes one response payload.
func DecodeResponse(buf []byte) (Response, error) {
	if len(buf) != respPayloadLen {
		return Response{}, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(buf))
	}
	return Response{
		ID:     binary.BigEndian.Uint32(buf[0:4]),
		Status: Status(buf[4]),
		Value:  binary.BigEndian.Uint64(buf[5:13]),
	}, nil
}

// AppendResponse appends r's full frame (length prefix + payload) to dst.
func AppendResponse(dst []byte, r Response) []byte {
	var b [RespFrameLen]byte
	binary.BigEndian.PutUint32(b[0:4], respPayloadLen)
	binary.BigEndian.PutUint32(b[4:8], r.ID)
	b[8] = byte(r.Status)
	binary.BigEndian.PutUint64(b[9:17], r.Value)
	return append(dst, b[:]...)
}
