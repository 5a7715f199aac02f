package libtm

import (
	"sync"
	"testing"

	"gstm/internal/txid"
)

func TestObjPeekReset(t *testing.T) {
	o := NewObj("hello")
	if o.Peek() != "hello" {
		t.Fatal("Peek initial")
	}
	o.Reset("bye")
	if o.Peek() != "bye" {
		t.Fatal("Reset")
	}
}

func TestVersionAdvancesPerCommit(t *testing.T) {
	rt := New(Config{})
	o := NewObj(0)
	before := o.b.version.Load()
	for i := 0; i < 3; i++ {
		_ = rt.Atomic(0, 0, func(tx *Tx) error {
			Write(tx, o, i)
			return nil
		})
	}
	if got := o.b.version.Load(); got != before+3 {
		t.Fatalf("version advanced %d, want 3", got-before)
	}
}

func TestReadOnlyTxLeavesVersion(t *testing.T) {
	rt := New(Config{})
	o := NewObj(1)
	before := o.b.version.Load()
	_ = rt.Atomic(0, 0, func(tx *Tx) error {
		_ = Read(tx, o)
		return nil
	})
	if o.b.version.Load() != before {
		t.Fatal("read-only commit bumped the version")
	}
}

func TestOptimisticReadProceedsUnderWriter(t *testing.T) {
	rt := New(Config{})
	o := NewObj(7)
	writer := &txState{self: txid.Pair{Txn: 0, Thread: 0}}
	if !o.b.tryLockWriter(writer) {
		t.Fatal("free object refused its write lock")
	}
	// A reader sees the last committed value while another transaction
	// holds the object's write lock, as long as that writer has not entered
	// its commit's resolve→publish window.
	var got int
	if err := rt.Atomic(1, 1, func(tx *Tx) error {
		got = Read(tx, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("optimistic read = %d, want pre-commit 7", got)
	}
	// Inside the window the registration is refused, and the reader retries.
	writer.committing.Store(true)
	if o.b.registerReader(&txState{}) {
		t.Fatal("reader registered on an object whose writer is publishing")
	}
	writer.committing.Store(false)
	o.b.unlockWriter(writer)
	if held, readers := o.LockState(); held || readers != 0 {
		t.Fatalf("leaked state: writerHeld=%v readers=%d", held, readers)
	}
}

func TestSelfDoomCleared(t *testing.T) {
	// A doomed attempt must not leak its doom flag into the retry.
	rt := New(Config{})
	o := NewObj(0)
	readerStarted := make(chan struct{})
	writerDone := make(chan struct{})
	attempts := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = rt.Atomic(1, 1, func(tx *Tx) error {
			attempts++
			_ = Read(tx, o)
			if attempts == 1 {
				close(readerStarted)
				<-writerDone
			}
			Write(tx, o, 100+attempts)
			return nil
		})
	}()
	<-readerStarted
	_ = rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, o, 42)
		return nil
	})
	close(writerDone)
	wg.Wait()
	if attempts < 2 {
		t.Fatalf("attempts = %d", attempts)
	}
	if got := o.Peek(); got != 100+attempts {
		t.Fatalf("final = %d, want %d (retry must eventually commit)", got, 100+attempts)
	}
}

func TestStatsAndReset(t *testing.T) {
	rt := New(Config{})
	o := NewObj(0)
	for i := 0; i < 5; i++ {
		_ = rt.Atomic(0, 0, func(tx *Tx) error {
			Write(tx, o, i)
			return nil
		})
	}
	c, _ := rt.Stats()
	if c != 5 {
		t.Fatalf("commits = %d", c)
	}
	rt.ResetStats()
	if c, a := rt.Stats(); c != 0 || a != 0 {
		t.Fatalf("after reset %d/%d", c, a)
	}
}

func TestNonConflictPanicPropagatesLibTM(t *testing.T) {
	rt := New(Config{})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recover = %v", r)
		}
	}()
	_ = rt.Atomic(0, 0, func(tx *Tx) error { panic("boom") })
}

func TestManyObjectsDisjointNoAborts(t *testing.T) {
	rt := New(Config{})
	objs := make([]*Obj[int], 8)
	for i := range objs {
		objs[i] = NewObj(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = rt.Atomic(txid.ThreadID(id), 0, func(tx *Tx) error {
					Write(tx, objs[id], Read(tx, objs[id])+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	for i, o := range objs {
		if o.Peek() != 100 {
			t.Fatalf("obj %d = %d", i, o.Peek())
		}
	}
}
