package tl2

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"gstm/internal/trace"
	"gstm/internal/txid"
)

// eventLog is a sink that keeps the aborts in delivery order and the last
// wv each pair committed at.
type eventLog struct {
	mu      sync.Mutex
	commits map[txid.Pair]uint64
	aborts  []abortEvent
}

type abortEvent struct {
	p     txid.Pair
	byWV  uint64
	known bool
}

func newEventLog() *eventLog { return &eventLog{commits: map[txid.Pair]uint64{}} }

func (l *eventLog) TxCommit(p txid.Pair, wv uint64, aborts int) {
	l.mu.Lock()
	l.commits[p] = wv
	l.mu.Unlock()
}

func (l *eventLog) TxAbort(p txid.Pair, byWV uint64, known bool) {
	l.mu.Lock()
	l.aborts = append(l.aborts, abortEvent{p, byWV, known})
	l.mu.Unlock()
}

// only returns the log's one abort, failing the test unless there is
// exactly one.
func (l *eventLog) only(t *testing.T, name string) abortEvent {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.aborts) != 1 {
		t.Fatalf("%s: %d aborts reported, want 1: %+v", name, len(l.aborts), l.aborts)
	}
	return l.aborts[0]
}

// tee fans every event out to each sink in order.
type tee []EventSink

func (s tee) TxCommit(p txid.Pair, wv uint64, aborts int) {
	for _, k := range s {
		k.TxCommit(p, wv, aborts)
	}
}

func (s tee) TxAbort(p txid.Pair, byWV uint64, known bool) {
	for _, k := range s {
		k.TxAbort(p, byWV, known)
	}
}

// commitOn runs a single-shard transaction writing val to v on rt from
// another goroutine and waits for it to commit: the interfering commit a
// test injects into a running attempt.
func commitOn(t *testing.T, rt *Runtime, self txid.Pair, v *Var[int], val int) {
	t.Helper()
	done := make(chan error)
	go func() {
		done <- rt.Atomic(self.Thread, self.Txn, func(tx *Tx) error {
			Write(tx, v, val)
			return nil
		})
	}()
	if err := <-done; err != nil {
		t.Fatalf("interfering commit: %v", err)
	}
}

// TestAbortAttributedByWV: B's commit at wv W invalidates A's read, and A's
// abort reaches the sink as (W, known); the Collector pairs it with W, so
// the state finalized for B's commit holds A.
func TestAbortAttributedByWV(t *testing.T) {
	rt := New(Config{})
	log, col := newEventLog(), trace.NewCollector()
	rt.SetSink(tee{log, col})
	a, b := pair(0, 0), pair(1, 1)
	v, w := NewVar(0), NewVar(0)
	err := rt.Atomic(a.Thread, a.Txn, func(tx *Tx) error {
		Read(tx, v)
		if tx.Attempt() == 0 {
			commitOn(t, rt, b, v, 1)
		}
		Write(tx, w, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wB := log.commits[b]
	if got := log.only(t, "A"); got != (abortEvent{a, wB, true}) {
		t.Fatalf("A's abort = %+v, want {%v %d true}", got, a, wB)
	}
	tr := col.Finalize()
	if tr.Unattributed != 0 {
		t.Fatalf("Unattributed = %d, want 0", tr.Unattributed)
	}
	for _, st := range tr.Seq {
		if st.Commit == b.Pack() {
			if !slices.Contains(st.Aborted, a.Pack()) {
				t.Fatalf("state of B's commit %v does not hold A", st)
			}
			return
		}
	}
	t.Fatal("no state for B's commit")
}

// TestCrossShardAbortKnownOnlyWhereProduced: a cross-shard transaction over
// two private-clock runtimes is invalidated on B, at read time or at
// prepare. B's sink sees the invalidating commit's wv as known; A's sink
// sees known = false although A's own clock also issued that wv, to an
// unrelated commit.
func TestCrossShardAbortKnownOnlyWhereProduced(t *testing.T) {
	for _, atRead := range []bool{false, true} {
		name := "prepare"
		if atRead {
			name = "read"
		}
		t.Run(name, func(t *testing.T) {
			rtA := New(Config{PrivateClock: true})
			rtB := New(Config{PrivateClock: true})
			logA, logB := newEventLog(), newEventLog()
			rtA.SetSink(logA)
			rtB.SetSink(logB)
			x, z, y := NewVar(0), NewVar(0), NewVar(0)
			// Both clocks reach 1, then A's reaches 2 through z: the wv
			// B's interfering commit will draw exists on A too.
			commitOn(t, rtA, pair(2, 2), x, 0)
			commitOn(t, rtB, pair(2, 2), y, 0)
			self, other := pair(0, 0), pair(1, 1)
			err := MultiRun(context.Background(), []*Runtime{rtA, rtB}, self.Thread, self.Txn, func(txs []*Tx) error {
				Read(txs[0], x)
				if !atRead {
					Read(txs[1], y) // tracked for prepare, then overwritten
				}
				if txs[0].Attempt() == 0 {
					commitOn(t, rtA, pair(3, 3), z, 1)
					commitOn(t, rtB, other, y, 1)
				}
				if atRead {
					Read(txs[1], y)
				}
				Write(txs[0], x, 1)
				return nil
			}, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			wB := logB.commits[other]
			if wB != logA.commits[pair(3, 3)] {
				t.Fatalf("clocks diverged: B's commit at %d, A's at %d", wB, logA.commits[pair(3, 3)])
			}
			if got := logB.only(t, "B"); got != (abortEvent{self, wB, true}) {
				t.Fatalf("B's sink: abort = %+v, want {%v %d true}", got, self, wB)
			}
			if got := logA.only(t, "A"); got.p != self || got.known {
				t.Fatalf("A's sink: abort = %+v, want %v with known = false", got, self)
			}
		})
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
		rts[i] = New(Config{Label: "footprint"})
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
