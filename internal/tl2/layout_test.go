package tl2

import (
	"testing"
	"unsafe"
)

// TestCellLayout is the engine's layout gate: a location's whole metadata
// is its lock word plus the snapshot pointer. The lock's owner lives in
// the locked word and waiters live in the side table (waiters.go), so a
// field added to base shows up here as 8 more bytes on every Var and every
// Array cell.
func TestCellLayout(t *testing.T) {
	if got := unsafe.Sizeof(Var[uint64]{}); got != 16 {
		t.Fatalf("Var[uint64] is %d bytes, want 16 (lock word + snapshot pointer)", got)
	}
	if got := unsafe.Sizeof(Var[[64]byte]{}); got != 16 {
		t.Fatalf("Var[[64]byte] is %d bytes, want 16: the value lives in its box, not the cell", got)
	}
}
