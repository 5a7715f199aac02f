package server

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest exercises the request codec with arbitrary payloads:
// DecodeRequest must never panic, and every payload it accepts must
// re-encode to the identical frame (the codec is bijective on valid
// frames — that is what lets the server trust framing after one decode).
func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRequest(nil, Request{Op: OpGet, ID: 1, Key: 42})[4:])
	f.Add(AppendRequest(nil, Request{Op: OpPut, ID: 0xFFFFFFFF, Key: ^uint64(0), Arg: 7})[4:])
	f.Add(AppendRequest(nil, Request{Op: OpInfo, ID: 3, Key: uint64(InfoShards)})[4:])
	f.Add(AppendRequest(nil, Request{Op: OpWatch, ID: 9, Key: 17, Arg: 3, Trace: true})[4:])
	f.Add(AppendRequest(nil, Request{Op: OpWaitKey, ID: 10, Key: 99})[4:])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, reqPayloadLen))
	f.Add(bytes.Repeat([]byte{0x00}, reqPayloadLen+1))

	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		if len(payload) != reqPayloadLen {
			t.Fatalf("accepted %d-byte payload, want exactly %d", len(payload), reqPayloadLen)
		}
		if req.Op < OpGet || req.Op > OpWaitKey || req.Op == opRetired {
			t.Fatalf("accepted invalid op %d", req.Op)
		}
		frame := AppendRequest(nil, req)
		if !bytes.Equal(frame[4:], payload) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", payload, frame[4:])
		}
	})
}

// FuzzDecodeResponse is the response-side dual.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(AppendResponse(nil, Response{ID: 1, Status: StatusOK, Value: 2})[4:])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAB}, respPayloadLen))

	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := DecodeResponse(payload)
		if err != nil {
			return
		}
		frame := AppendResponse(nil, resp)
		if !bytes.Equal(frame[4:], payload) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", payload, frame[4:])
		}
	})
}
