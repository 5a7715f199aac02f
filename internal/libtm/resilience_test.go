package libtm

import (
	"testing"
	"time"
)

// TestPanicReleasesLocksAndReaders: a panic out of the body must release
// the encounter-time write lock and the visible-reader registration before
// propagating, and must not pool a dirty Tx.
func TestPanicReleasesLocksAndReaders(t *testing.T) {
	rt := New(Config{WriteMode: WriteEncounterTime})
	o := NewObj(0)
	r := NewObj(0)

	func() {
		defer func() {
			if rec := recover(); rec != "boom" {
				t.Fatalf("panic value = %v, want boom", rec)
			}
		}()
		_ = rt.Atomic(0, 0, func(tx *Tx) error {
			_ = Read(tx, r) // registers as visible reader
			Write(tx, o, 1) // takes encounter-time write lock
			panic("boom")
		})
	}()

	if held, readers := o.LockState(); held || readers != 0 {
		t.Fatalf("written object leaked state: writerHeld=%v readers=%d", held, readers)
	}
	if held, readers := r.LockState(); held || readers != 0 {
		t.Fatalf("read object leaked registration: writerHeld=%v readers=%d", held, readers)
	}
	// Object must still be writable by another transaction, promptly.
	done := make(chan error, 1)
	go func() {
		done <- rt.Atomic(1, 1, func(tx *Tx) error {
			Write(tx, o, Read(tx, o)+41)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follow-up transaction failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow-up transaction hung on leaked write lock")
	}
	if got := o.Peek(); got != 41 {
		t.Fatalf("panicked write leaked: got %d, want 41", got)
	}
}
