package libtm

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

// The *AllModes tests predate the removal of LibTM's pessimistic and
// wait-for-readers modes; they now cover the one configuration there is,
// with forced interleaving.

func TestBasicReadWriteAllModes(t *testing.T) {
	rt := New(Config{Interleave: 4})
	o := NewObj(10)
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, o, Read(tx, o)+5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := o.Peek(); got != 15 {
		t.Fatalf("Peek = %d, want 15", got)
	}
}

func TestCounterUnderContentionAllModes(t *testing.T) {
	rt := New(Config{Interleave: 4})
	o := NewObj(0)
	const workers, per = 6, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id txid.ThreadID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := rt.Atomic(id, 0, func(tx *Tx) error {
					Write(tx, o, Read(tx, o)+1)
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}(txid.ThreadID(w))
	}
	wg.Wait()
	if got := o.Peek(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	commits, _ := rt.Stats()
	if commits != workers*per {
		t.Fatalf("commits = %d", commits)
	}
}

func TestUserErrorDiscardsWrites(t *testing.T) {
	rt := New(Config{})
	o := NewObj(1)
	sentinel := errors.New("nope")
	err := rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, o, 99)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if o.Peek() != 1 {
		t.Fatal("aborted write leaked")
	}
	// Locks and reader registrations must be released: a following
	// transaction must succeed promptly.
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, o, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if o.Peek() != 2 {
		t.Fatal("follow-up write failed")
	}
}

func TestAbortReadersDoomsReader(t *testing.T) {
	rt := New(Config{})
	o := NewObj(0)
	readerStarted := make(chan struct{})
	writerDone := make(chan struct{})
	var readerAttempts int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = rt.Atomic(1, 1, func(tx *Tx) error {
			readerAttempts++
			_ = Read(tx, o)
			if readerAttempts == 1 {
				close(readerStarted)
				<-writerDone // stay registered while the writer commits
			}
			return nil
		})
	}()
	<-readerStarted
	if err := rt.Atomic(0, 0, func(tx *Tx) error {
		Write(tx, o, 42)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(writerDone)
	wg.Wait()
	if readerAttempts < 2 {
		t.Fatalf("reader attempts = %d, want >= 2 (should have been doomed)", readerAttempts)
	}
	_, aborts := rt.Stats()
	if aborts == 0 {
		t.Fatal("no abort recorded")
	}
}

type countSink struct {
	mu      sync.Mutex
	commits int
	aborts  int
	wvs     []uint64 // commit wvs in delivery order
	knownBy []uint64 // the wvs known aborts named
}

func (s *countSink) TxCommit(p txid.Pair, wv uint64, aborts int) {
	s.mu.Lock()
	s.commits++
	s.wvs = append(s.wvs, wv)
	s.mu.Unlock()
}

func (s *countSink) TxAbort(p txid.Pair, byWV uint64, known bool) {
	s.mu.Lock()
	s.aborts++
	if known {
		s.knownBy = append(s.knownBy, byWV)
	}
	s.mu.Unlock()
}

func TestSinkReceivesEvents(t *testing.T) {
	rt := New(Config{Interleave: 3})
	sink := &countSink{}
	rt.SetSink(sink)
	o := NewObj(0)
	const workers, per = 6, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id txid.ThreadID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = rt.Atomic(id, 0, func(tx *Tx) error {
					Write(tx, o, Read(tx, o)+1)
					return nil
				})
			}
		}(txid.ThreadID(w))
	}
	wg.Wait()
	if sink.commits != workers*per {
		t.Fatalf("sink commits = %d", sink.commits)
	}
	commits, aborts := rt.Stats()
	if int(commits) != sink.commits || int(aborts) != sink.aborts {
		t.Fatalf("stats %d/%d vs sink %d/%d", commits, aborts, sink.commits, sink.aborts)
	}
	if sink.aborts > 0 && len(sink.knownBy) == 0 {
		t.Error("no abort had known attribution (dooming should attribute exactly)")
	}
}

// TestDoomedReaderAttributedByWV: a writer's commit at wv W dooms a
// registered reader, whose abort reaches the sink as W, known.
func TestDoomedReaderAttributedByWV(t *testing.T) {
	rt := New(Config{})
	sink := &countSink{}
	rt.SetSink(sink)
	o := NewObj(0)
	err := rt.Atomic(0, 0, func(tx *Tx) error {
		Read(tx, o)
		if tx.Attempt() == 0 {
			done := make(chan error)
			go func() {
				done <- rt.Atomic(1, 1, func(tx *Tx) error {
					Write(tx, o, 1)
					return nil
				})
			}()
			if err := <-done; err != nil {
				t.Errorf("writer: %v", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.aborts != 1 || len(sink.knownBy) != 1 || len(sink.wvs) != 2 {
		t.Fatalf("aborts %d, known %v, commits %v: want one known abort and two commits", sink.aborts, sink.knownBy, sink.wvs)
	}
	if w := sink.wvs[0]; sink.knownBy[0] != w {
		t.Fatalf("doomed reader names wv %d, want the writer's %d", sink.knownBy[0], w)
	}
}

type recordGate struct{ n int }

func (g *recordGate) Arrive(p txid.Pair) telemetry.GateOutcome {
	g.n++
	return telemetry.GateHold
}

func TestGateConsulted(t *testing.T) {
	rt := New(Config{})
	g := &recordGate{}
	rt.SetGate(g)
	o := NewObj(0)
	for i := 0; i < 5; i++ {
		_ = rt.Atomic(0, 0, func(tx *Tx) error {
			Write(tx, o, i)
			return nil
		})
	}
	if g.n < 5 {
		t.Fatalf("gate consulted %d times", g.n)
	}
	rt.SetGate(nil)
	before := g.n
	_ = rt.Atomic(0, 0, func(tx *Tx) error { return nil })
	if g.n != before {
		t.Fatal("gate consulted after removal")
	}
}

func TestBankTransfersAllModes(t *testing.T) {
	rt := New(Config{Interleave: 4})
	const n = 8
	accounts := make([]*Obj[int], n)
	for i := range accounts {
		accounts[i] = NewObj(100)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id txid.ThreadID) {
			defer wg.Done()
			rng := uint64(id)*2654435761 + 7
			next := func(m int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(m))
			}
			for i := 0; i < 100; i++ {
				from, to := next(n), next(n)
				if from == to {
					continue
				}
				if err := rt.Atomic(id, 0, func(tx *Tx) error {
					bf := Read(tx, accounts[from])
					bt := Read(tx, accounts[to])
					Write(tx, accounts[from], bf-1)
					Write(tx, accounts[to], bt+1)
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
	for _, a := range accounts {
		total += a.Peek()
	}
	if total != n*100 {
		t.Fatalf("total = %d, want %d", total, n*100)
	}
}

// TestRuntimeFootprint bounds what a fresh Runtime keeps live: after GC,
// eight runtimes may add at most 8.5 KiB of heap each. About 7.7 KB is
// measured: sixteen 256-byte counter blocks, one per thread slot, plus the
// Metrics with its two latency histograms (a 2 688-byte size class). Gate
// tallies live in the guidance controller, not in a fresh Runtime.
func TestRuntimeFootprint(t *testing.T) {
	const n, limit = 8, 8<<10 + 512
	var before, after runtime.MemStats
	// Two cycles: the first only moves pooled Txs of earlier runtimes to
	// the pools' victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	rts := make([]*Runtime, n)
	for i := range rts {
		rts[i] = New(Config{})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	for _, rt := range rts {
		rt.Telemetry().Unregister()
	}
	t.Logf("%d B live per Runtime", per)
	if per > limit {
		t.Fatalf("a fresh Runtime holds %d B live, over the %d B bound", per, limit)
	}
}
