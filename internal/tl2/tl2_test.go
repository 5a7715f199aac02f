package tl2

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

func TestReadInitialValue(t *testing.T) {
	rt := New(Config{})
	v := NewVar(42)
	var got int
	err := rt.Atomic(0, 0, func(tx *Tx) error {
		got = Read(tx, v)
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if got != 42 {
		t.Fatalf("Read = %d, want 42", got)
	}
}

func TestWriteThenPeek(t *testing.T) {
	rt := New(Config{})
	v := NewVar("old")
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, v, "new")
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if got := v.Peek(); got != "new" {
		t.Fatalf("Peek = %q, want %q", got, "new")
	}
}

func TestReadAfterWriteSeesBuffer(t *testing.T) {
	rt := New(Config{})
	v := NewVar(1)
	err := rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, v, 99)
		if got := Read(tx, v); got != 99 {
			t.Fatalf("read-after-write = %d, want 99", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
}

func TestUserErrorAbortsAndDiscardsWrites(t *testing.T) {
	rt := New(Config{})
	v := NewVar(7)
	sentinel := errors.New("boom")
	err := rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, v, 1000)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if got := v.Peek(); got != 7 {
		t.Fatalf("write leaked through user abort: Peek = %d, want 7", got)
	}
}

func TestNonConflictPanicPropagates(t *testing.T) {
	rt := New(Config{})
	defer func() {
		if r := recover(); r != "user panic" {
			t.Fatalf("recover = %v, want user panic", r)
		}
	}()
	_ = rt.Atomic(0, 0, func(tx *Tx) error { panic("user panic") })
}

func TestCounterUnderContention(t *testing.T) {
	rt := New(Config{Interleave: 4})
	v := NewVar(0)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id txid.ThreadID) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := rt.Atomic(id, 0, func(tx *Tx) error {
					Write(tx, v, Read(tx, v)+1)
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}(txid.ThreadID(w))
	}
	wg.Wait()
	if got := v.Peek(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	commits, _ := rt.Stats()
	if commits != workers*perWorker {
		t.Fatalf("commits = %d, want %d", commits, workers*perWorker)
	}
}

func TestBankTransferConservesTotal(t *testing.T) {
	rt := New(Config{Interleave: 4})
	const accounts = 16
	const initial = 1000
	arr := NewArray[int](accounts)
	for i := 0; i < accounts; i++ {
		arr.Reset(i, initial)
	}
	const workers, transfers = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id txid.ThreadID) {
			defer wg.Done()
			rng := uint64(id)*2654435761 + 12345
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < transfers; i++ {
				from, to := next(accounts), next(accounts)
				if from == to {
					continue
				}
				if err := rt.Atomic(id, 1, func(tx *Tx) error {
					bf := ReadAt(tx, arr, from)
					bt := ReadAt(tx, arr, to)
					WriteAt(tx, arr, from, bf-1)
					WriteAt(tx, arr, to, bt+1)
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}(txid.ThreadID(w))
	}
	wg.Wait()
	total := 0
	for i := 0; i < accounts; i++ {
		total += arr.Peek(i)
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (money created or destroyed)", total, accounts*initial)
	}
}

func TestNoDirtyReads(t *testing.T) {
	// A transaction that writes two vars must never expose a state where
	// only one write is visible.
	rt := New(Config{Interleave: 2})
	a, b := NewVar(0), NewVar(0)
	stop := make(chan struct{})
	var violations atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = rt.Atomic(0, 0, func(tx *Tx) error {
				Write(tx, a, i)
				Write(tx, b, i)
				return nil
			})
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; j < 2000; j++ {
			_ = rt.Atomic(1, 1, func(tx *Tx) error {
				va := Read(tx, a)
				vb := Read(tx, b)
				if va != vb {
					violations.Add(1)
				}
				return nil
			})
		}
		close(stop)
	}()
	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("observed %d torn states (a != b inside a transaction)", n)
	}
}

type recordingSink struct {
	mu      sync.Mutex
	commits []uint64
	aborts  int
}

func (s *recordingSink) TxCommit(p txid.Pair, wv uint64, aborts int) {
	s.mu.Lock()
	s.commits = append(s.commits, wv)
	s.mu.Unlock()
}

func (s *recordingSink) TxAbort(p txid.Pair, byWV uint64, known bool) {
	s.mu.Lock()
	s.aborts++
	s.mu.Unlock()
}

func TestSinkSeesUniqueCommitVersions(t *testing.T) {
	rt := New(Config{Interleave: 4})
	sink := &recordingSink{}
	rt.SetSink(sink)
	v := NewVar(0)
	const workers, per = 6, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id txid.ThreadID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = rt.Atomic(id, 0, func(tx *Tx) error {
					Write(tx, v, Read(tx, v)+1)
					return nil
				})
			}
		}(txid.ThreadID(w))
	}
	wg.Wait()
	if len(sink.commits) != workers*per {
		t.Fatalf("sink saw %d commits, want %d", len(sink.commits), workers*per)
	}
	seen := make(map[uint64]bool, len(sink.commits))
	for _, wv := range sink.commits {
		if wv == 0 {
			t.Fatal("commit reported with wv 0")
		}
		if seen[wv] {
			t.Fatalf("duplicate commit version %d", wv)
		}
		seen[wv] = true
	}
	commits, aborts := rt.Stats()
	if int(commits) != workers*per {
		t.Fatalf("Stats commits = %d, want %d", commits, workers*per)
	}
	if int(aborts) != sink.aborts {
		t.Fatalf("Stats aborts = %d, sink aborts = %d", aborts, sink.aborts)
	}
}

func TestReadOnlyCommitTicksClockOnlyWhenTraced(t *testing.T) {
	rt := New(Config{})
	v := NewVar(5)

	// Untraced: the read-only commit elides the global-clock tick (nothing
	// is published and no sink consumes the sequence number).
	before := rt.Clock()
	_ = rt.Atomic(0, 0, func(tx *Tx) error {
		_ = Read(tx, v)
		return nil
	})
	if rt.Clock() != before {
		t.Fatalf("clock = %d, want %d (untraced read-only commit must elide the tick)", rt.Clock(), before)
	}

	// Traced: every commit, including read-only ones, draws a unique tick
	// so the trace layer can totally order the transaction sequence.
	sink := &recordingSink{}
	rt.SetSink(sink)
	before = rt.Clock()
	_ = rt.Atomic(0, 0, func(tx *Tx) error {
		_ = Read(tx, v)
		return nil
	})
	if rt.Clock() != before+1 {
		t.Fatalf("clock = %d, want %d (traced read-only commits must be sequenced)", rt.Clock(), before+1)
	}
	if len(sink.commits) != 1 || sink.commits[0] != before+1 {
		t.Fatalf("sink saw %v, want [%d]", sink.commits, before+1)
	}
}

type countingGate struct{ n atomic.Int64 }

func (g *countingGate) Arrive(p txid.Pair) telemetry.GateOutcome {
	g.n.Add(1)
	return telemetry.GatePass
}

func TestGateCalledPerAttempt(t *testing.T) {
	rt := New(Config{})
	g := &countingGate{}
	rt.SetGate(g)
	v := NewVar(0)
	for i := 0; i < 10; i++ {
		_ = rt.Atomic(0, 0, func(tx *Tx) error {
			Write(tx, v, i)
			return nil
		})
	}
	if got := g.n.Load(); got < 10 {
		t.Fatalf("gate called %d times, want >= 10", got)
	}
	rt.SetGate(nil)
	before := g.n.Load()
	_ = rt.Atomic(0, 0, func(tx *Tx) error { return nil })
	if g.n.Load() != before {
		t.Fatal("gate called after removal")
	}
}

func TestArrayDisjointElementsDoNotConflict(t *testing.T) {
	rt := New(Config{})
	sink := &recordingSink{}
	rt.SetSink(sink)
	arr := NewArray[int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = rt.Atomic(txid.ThreadID(id), 0, func(tx *Tx) error {
					WriteAt(tx, arr, id, ReadAt(tx, arr, id)+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if got := arr.Peek(i); got != 100 {
			t.Fatalf("arr[%d] = %d, want 100", i, got)
		}
	}
}

// TestVersionedLockWord pins the lock word's encoding (clock.go) and the
// protocol steps that read and write it: an unlocked word carries its
// version and the waiter mark, a locked word names its owner's tag, the
// ownership test rejects every other tag, an abort's restore keeps the mark
// and a commit's publish clears it.
func TestVersionedLockWord(t *testing.T) {
	if err := quick.Check(func(version, tag uint64) bool {
		version &= (1 << 62) - 1 // stay in range
		tag = tag&((1<<62)-1) | 1
		w := makeWord(version)
		return wordVersion(w) == version && !wordLocked(w) &&
			wordVersion(w|waitBit) == version && !wordLocked(w|waitBit) &&
			wordLocked(lockedBy(tag)) && lockedBy(tag)&waitBit == 0
	}, nil); err != nil {
		t.Fatal(err)
	}

	rt := New(Config{PrivateClock: true})
	v := NewVar(0)
	b := &v.b
	// locked takes b's lock in a fresh transaction that writes v, the first
	// half of a commit.
	locked := func() *Tx {
		t.Helper()
		tx := rt.pool.Get().(*Tx)
		tx.reset(txid.Pair{}, 0, false, false, nil)
		Write(tx, v, 1)
		if !tx.lockWriteSet() {
			t.Fatal("lockWriteSet failed on an unlocked location")
		}
		return tx
	}

	rt.AdvanceClock(5)
	b.word.Store(makeWord(5))
	tx := locked()
	w := b.word.Load()
	if w != lockedBy(tx.tag) {
		t.Fatalf("locked word = %#x, want lockedBy(tag %d) = %#x", w, tx.tag, lockedBy(tx.tag))
	}
	if pre, mine := tx.ownedPre(b, w); !mine || pre != makeWord(5) {
		t.Fatalf("ownedPre(own lock) = (%#x, %v), want (%#x, true)", pre, mine, makeWord(5))
	}
	other := rt.pool.Get().(*Tx)
	other.reset(txid.Pair{}, 0, false, false, nil)
	if other.tag == tx.tag {
		t.Fatal("two pooled transactions share a tag")
	}
	if _, mine := other.ownedPre(b, w); mine {
		t.Fatal("ownedPre accepted a lock held under a foreign tag")
	}
	if _, mine := tx.ownedPre(b, lockedBy(tx.tag+1)); mine {
		t.Fatal("ownedPre accepted a word locked by another tag")
	}
	if _, locked := v.LockState(); !locked {
		t.Fatal("LockState does not report the held lock")
	}
	tx.releaseLocks(0)
	tx.scrub()
	if got := b.word.Load(); got != makeWord(5) {
		t.Fatalf("abort restored %#x, want %#x", got, makeWord(5))
	}

	// A parker's mark survives an abort's restore...
	if !markWaited(b, 5) {
		t.Fatal("markWaited refused an unlocked word at rv")
	}
	if markWaited(b, 4) {
		t.Fatal("markWaited accepted a word newer than rv")
	}
	tx = locked()
	if tx.ws.Entries()[0].Pre != makeWord(5)|waitBit {
		t.Fatalf("Pre = %#x, want the marked word %#x", tx.ws.Entries()[0].Pre, makeWord(5)|waitBit)
	}
	if markWaited(b, 5) {
		t.Fatal("markWaited accepted a locked word")
	}
	tx.releaseLocks(0)
	tx.scrub()
	if got := b.word.Load(); got != makeWord(5)|waitBit {
		t.Fatalf("abort restored %#x, want the mark kept: %#x", got, makeWord(5)|waitBit)
	}

	// ...and a commit's publish clears it.
	tx = locked()
	rt.AdvanceClock(9)
	tx.publishAt(9)
	tx.scrub()
	if got := b.word.Load(); got != makeWord(9) {
		t.Fatalf("publish left %#x, want the unmarked word at wv: %#x", got, makeWord(9))
	}
	if version, locked := v.LockState(); locked || version != 9 || v.Peek() != 1 {
		t.Fatalf("after publish: version %d locked %v value %d, want 9 false 1", version, locked, v.Peek())
	}
	rt.pool.Put(tx)
	rt.pool.Put(other)
}

func TestQuickSequentialTransfersConserve(t *testing.T) {
	// Property: any sequence of (from, to, amount) transfers leaves the
	// total balance unchanged.
	rt := New(Config{})
	f := func(ops []struct {
		From, To uint8
		Amt      uint8
	}) bool {
		const n = 8
		arr := NewArray[int](n)
		for i := 0; i < n; i++ {
			arr.Reset(i, 100)
		}
		for _, op := range ops {
			from, to := int(op.From)%n, int(op.To)%n
			_ = rt.Atomic(0, 0, func(tx *Tx) error {
				bf := ReadAt(tx, arr, from)
				WriteAt(tx, arr, from, bf-int(op.Amt))
				bt := ReadAt(tx, arr, to)
				WriteAt(tx, arr, to, bt+int(op.Amt))
				return nil
			})
		}
		total := 0
		for i := 0; i < n; i++ {
			total += arr.Peek(i)
		}
		return total == n*100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
