package server

import (
	"errors"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, ID: 1, Key: 42},
		{Op: OpPut, ID: 0xFFFFFFFF, Key: 0xFFFFFFFFFFFFFFFF, Arg: 7},
		{Op: OpAdd, ID: 7, Key: 0, Arg: 0x8000000000000000},
		{Op: OpDel, ID: 1 << 30, Key: 1 << 60},
		{Op: OpInfo, ID: 9, Key: uint64(InfoShards)},
	}
	for _, want := range cases {
		buf := AppendRequest(nil, want)
		if len(buf) != ReqFrameLen {
			t.Fatalf("frame length %d, want %d", len(buf), ReqFrameLen)
		}
		got, err := DecodeRequest(buf[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, Status: StatusOK, Value: 99},
		{ID: 0xFFFFFFFF, Status: StatusNotFound},
		{ID: 5, Status: StatusShutdown, Value: 0xFFFFFFFFFFFFFFFF},
	}
	for _, want := range cases {
		buf := AppendResponse(nil, want)
		if len(buf) != RespFrameLen {
			t.Fatalf("frame length %d, want %d", len(buf), RespFrameLen)
		}
		got, err := DecodeResponse(buf[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	if _, err := DecodeRequest(make([]byte, reqPayloadLen-1)); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short payload: got %v, want ErrShortFrame", err)
	}
	bad := AppendRequest(nil, Request{Op: OpGet, ID: 1, Key: 2})
	bad[4] = 0 // op byte below the valid range
	if _, err := DecodeRequest(bad[4:]); !errors.Is(err, ErrBadOp) {
		t.Fatalf("op 0: got %v, want ErrBadOp", err)
	}
	bad[4] = byte(OpWaitKey) + 1
	if _, err := DecodeRequest(bad[4:]); !errors.Is(err, ErrBadOp) {
		t.Fatalf("op out of range: got %v, want ErrBadOp", err)
	}
	bad[4] = 5 // retired: no op may reuse its wire value
	if _, err := DecodeRequest(bad[4:]); !errors.Is(err, ErrBadOp) {
		t.Fatalf("op 5: got %v, want ErrBadOp", err)
	}
	if _, err := DecodeResponse(make([]byte, respPayloadLen-1)); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short response: got %v, want ErrShortFrame", err)
	}
}

// TestDecodeRequestZeroAlloc is the allocation gate run by CI's bench-smoke
// job: the per-request decode path must stay allocation-free.
func TestDecodeRequestZeroAlloc(t *testing.T) {
	buf := AppendRequest(nil, Request{Op: OpAdd, ID: 77, Key: 123456, Arg: 1})
	payload := buf[4:]
	allocs := testing.AllocsPerRun(1000, func() {
		req, err := DecodeRequest(payload)
		if err != nil || req.ID != 77 {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeRequest allocates %.1f times per op, want 0", allocs)
	}
}

func TestAppendResponseZeroAllocWithCapacity(t *testing.T) {
	buf := make([]byte, 0, RespFrameLen)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendResponse(buf[:0], Response{ID: 1, Status: StatusOK, Value: 2})
	})
	if allocs != 0 {
		t.Fatalf("AppendResponse into sized buffer allocates %.1f times per op, want 0", allocs)
	}
}
