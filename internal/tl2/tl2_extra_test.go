package tl2

import (
	"runtime"
	"sync"
	"testing"

	"gstm/internal/txid"
)

// TestStructAndSliceValues exercises Vars of composite types: values are
// published as immutable snapshots, so copies written back must not alias
// the originals.
func TestStructAndSliceValues(t *testing.T) {
	type rec struct {
		Name  string
		Items []int
	}
	rt := New(Config{})
	v := NewVar(rec{Name: "a", Items: []int{1, 2}})
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		r := Read(tx, v)
		items := make([]int, len(r.Items), len(r.Items)+1)
		copy(items, r.Items)
		items = append(items, 3)
		Write(tx, v, rec{Name: r.Name + "b", Items: items})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := v.Peek()
	if got.Name != "ab" || len(got.Items) != 3 || got.Items[2] != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestPointerVars(t *testing.T) {
	type node struct{ v int }
	rt := New(Config{})
	v := NewVar[*node](nil)
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		if Read(tx, v) != nil {
			t.Error("initial pointer not nil")
		}
		Write(tx, v, &node{v: 5})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Peek(); got == nil || got.v != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestLargeWriteSet(t *testing.T) {
	rt := New(Config{})
	const n = 500
	arr := NewArray[int](n)
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		for i := 0; i < n; i++ {
			WriteAt(tx, arr, i, i*i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if arr.Peek(i) != i*i {
			t.Fatalf("arr[%d] = %d", i, arr.Peek(i))
		}
	}
}

func TestWriteThenWriteKeepsLast(t *testing.T) {
	rt := New(Config{})
	v := NewVar(0)
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, v, 1)
		Write(tx, v, 2)
		Write(tx, v, 3)
		if got := Read(tx, v); got != 3 {
			t.Errorf("buffered read = %d", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v.Peek() != 3 {
		t.Fatalf("Peek = %d", v.Peek())
	}
}

func TestSinkRemovableMidRun(t *testing.T) {
	rt := New(Config{Interleave: 4})
	sink := &recordingSink{}
	rt.SetSink(sink)
	v := NewVar(0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = rt.Atomic(0, 0, func(tx *Tx) error {
				Write(tx, v, Read(tx, v)+1)
				return nil
			})
		}
	}()
	for i := 0; i < 50; i++ {
		rt.SetSink(sink)
		rt.SetSink(nil)
		runtime.Gosched()
	}
	// Let the worker make progress before stopping (single-core runs may
	// not have scheduled it yet).
	for v.Peek() == 0 {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if v.Peek() == 0 {
		t.Fatal("no work done")
	}
}

func TestTxSelfAndAttempt(t *testing.T) {
	rt := New(Config{})
	want := txid.Pair{Txn: 3, Thread: 5}
	if err := rt.Atomic(5, 3, func(tx *Tx) error {
		if tx.Self() != want {
			t.Errorf("Self = %v", tx.Self())
		}
		if tx.Attempt() != 0 {
			t.Errorf("Attempt = %d", tx.Attempt())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAttemptIncrementsOnRetry(t *testing.T) {
	rt := New(Config{})
	v := NewVar(0)
	release := make(chan struct{})
	started := make(chan struct{})
	attempts := []int{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		first := true
		_ = rt.Atomic(0, 0, func(tx *Tx) error {
			attempts = append(attempts, tx.Attempt())
			x := Read(tx, v)
			if first {
				first = false
				close(started)
				<-release
			}
			Write(tx, v, x+1)
			return nil
		})
	}()
	<-started
	_ = rt.Atomic(1, 1, func(tx *Tx) error {
		Write(tx, v, 100)
		return nil
	})
	close(release)
	<-done
	if len(attempts) < 2 || attempts[0] != 0 || attempts[1] != 1 {
		t.Fatalf("attempts = %v", attempts)
	}
}

func TestVarResetClearsVersion(t *testing.T) {
	rt := New(Config{})
	v := NewVar(1)
	// Commit a write so the version advances.
	_ = rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, v, 2)
		return nil
	})
	v.Reset(9)
	// A fresh transaction must read the reset value without conflicting.
	var got int
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		got = Read(tx, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("got %d", got)
	}
}

func TestCrossRuntimeSharing(t *testing.T) {
	// The global version clock means Vars populated under one Runtime are
	// readable under another (the setup-phase pattern of the STAMP ports).
	setup := New(Config{})
	v := NewVar(0)
	if err := setup.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, v, 41)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	other := New(Config{})
	if err := other.Atomic(1, 1, func(tx *Tx) error {
		Write(tx, v, Read(tx, v)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.Peek(); got != 42 {
		t.Fatalf("cross-runtime value = %d, want 42", got)
	}
}

func TestManyVarsManyThreadsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rt := New(Config{Interleave: 3})
	const nv, workers, ops = 4, 10, 300
	vars := make([]*Var[int64], nv)
	for i := range vars {
		vars[i] = NewVar[int64](0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id txid.ThreadID) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				_ = rt.Atomic(id, txid.TxnID(i%3), func(tx *Tx) error {
					// Move a unit around a ring of vars: total stays 0.
					a := vars[i%nv]
					b := vars[(i+1)%nv]
					Write(tx, a, Read(tx, a)-1)
					Write(tx, b, Read(tx, b)+1)
					return nil
				})
			}
		}(txid.ThreadID(w))
	}
	wg.Wait()
	var total int64
	for _, v := range vars {
		total += v.Peek()
	}
	if total != 0 {
		t.Fatalf("ring total = %d, want 0", total)
	}
}

func TestAtomicRORejectsWrites(t *testing.T) {
	rt := New(Config{})
	v := NewVar(5)
	err := rt.Run(nil, 0, 0, func(tx *Tx) error {
		Write(tx, v, 6)
		return nil
	}, true, 0)
	if err == nil {
		t.Fatal("Write inside a read-only Run succeeded")
	}
	if v.Peek() != 5 {
		t.Fatal("write leaked")
	}
	// The runtime stays usable afterwards.
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, v, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v.Peek() != 7 {
		t.Fatal("follow-up write failed")
	}
}

func TestAtomicROStillCommitsAndCounts(t *testing.T) {
	rt := New(Config{})
	// Tracing installed: read-only commits must still draw a sequence
	// number (tick elision is reserved for the untraced fast path).
	sink := &recordingSink{}
	rt.SetSink(sink)
	v := NewVar(1)
	before, _ := rt.Stats()
	clock := rt.Clock()
	if err := rt.Run(nil, 0, 0, func(tx *Tx) error {
		_ = Read(tx, v)
		return nil
	}, true, 0); err != nil {
		t.Fatal(err)
	}
	after, _ := rt.Stats()
	if after != before+1 {
		t.Fatalf("commits %d → %d", before, after)
	}
	if rt.Clock() != clock+1 {
		t.Fatal("traced read-only commit must still be sequenced")
	}
}
