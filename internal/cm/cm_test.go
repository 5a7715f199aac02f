package cm

import (
	"sync"
	"testing"

	"gstm/internal/tl2"
	"gstm/internal/txid"
)

func pair(txn, thread int) txid.Pair {
	return txid.Pair{Txn: txid.TxnID(txn), Thread: txid.ThreadID(thread)}
}

// runCounter drives a contended counter through rt and returns the final
// value.
func runCounter(t *testing.T, rt *tl2.Runtime, workers, per int) int {
	t.Helper()
	v := tl2.NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id txid.ThreadID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := rt.Atomic(id, 0, func(tx *tl2.Tx) error {
					tl2.Write(tx, v, tl2.Read(tx, v)+1)
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}(txid.ThreadID(w))
	}
	wg.Wait()
	return v.Peek()
}

// install wires a manager as both gate and sink of a fresh runtime.
type manager interface {
	tl2.Gate
	tl2.EventSink
}

func newManagedRuntime(m manager) *tl2.Runtime {
	rt := tl2.New(tl2.Config{Interleave: 4})
	rt.SetGate(m)
	rt.SetSink(m)
	return rt
}

func TestPoliteCorrectUnderContention(t *testing.T) {
	rt := newManagedRuntime(NewPolite(0))
	if got := runCounter(t, rt, 6, 150); got != 900 {
		t.Fatalf("counter = %d, want 900", got)
	}
}

func TestKarmaCorrectUnderContention(t *testing.T) {
	rt := newManagedRuntime(NewKarma(0, 0))
	if got := runCounter(t, rt, 6, 150); got != 900 {
		t.Fatalf("counter = %d, want 900", got)
	}
}

func TestGreedyCorrectUnderContention(t *testing.T) {
	rt := newManagedRuntime(NewGreedy(0))
	if got := runCounter(t, rt, 6, 150); got != 900 {
		t.Fatalf("counter = %d, want 900", got)
	}
}

func TestRoundRobinCorrectAndNearDeterministic(t *testing.T) {
	// A deep yield budget before stealing: on a loaded machine the token
	// holder can be descheduled past the default 512 yields mid-run, and
	// the steal hatch firing then is liveness working as designed, not a
	// rotation bug. With the deeper budget only genuine stalls steal.
	rr := NewRoundRobin(4, 8192)
	rt := newManagedRuntime(rr)
	if got := runCounter(t, rt, 4, 100); got != 400 {
		t.Fatalf("counter = %d, want 400", got)
	}
	// All four threads run the same number of transactions, so steals
	// should be confined to the tail (threads finishing) plus whatever
	// stalls the machine itself injects: require the rotation to hold for
	// at least 90% of the 400 commits.
	if rr.Steals() > 40 {
		t.Fatalf("steals = %d; rotation should be followed almost always", rr.Steals())
	}
}

func TestPoliteStreakTracking(t *testing.T) {
	p := NewPolite(3)
	pr := pair(0, 1)
	p.TxAbort(pr, 1, true)
	p.TxAbort(pr, 2, true)
	if got := p.streak[1].Load(); got != 2 {
		t.Fatalf("streak = %d, want 2", got)
	}
	p.TxCommit(pr, 3, 2)
	if got := p.streak[1].Load(); got != 0 {
		t.Fatalf("streak after commit = %d, want 0", got)
	}
	// Arrive with zero streak must return immediately (no panic, no wait).
	p.Arrive(pr)
}

func TestKarmaAccumulatesAndResets(t *testing.T) {
	k := NewKarma(4, 8)
	pr := pair(0, 2)
	for i := 0; i < 10; i++ {
		k.TxAbort(pr, 1, true)
	}
	if got := k.karma[2].Load(); got != 10 {
		t.Fatalf("karma = %d", got)
	}
	k.TxCommit(pr, 2, 10)
	if got := k.karma[2].Load(); got != 0 {
		t.Fatalf("karma after commit = %d", got)
	}
}

func TestKarmaGatesLowPriorityThread(t *testing.T) {
	k := NewKarma(2, 4)
	rich := pair(0, 0)
	for i := 0; i < 50; i++ {
		k.TxAbort(rich, 1, true)
	}
	// The poor thread must yield its bounded amount, then proceed (the
	// call returning at all is the progress guarantee).
	k.Arrive(pair(0, 1))
	// The rich thread proceeds immediately.
	k.Arrive(rich)
}

func TestGreedySeniorityHeldAcrossRetries(t *testing.T) {
	g := NewGreedy(4)
	old := pair(0, 0)
	young := pair(0, 1)
	g.Arrive(old) // stamps seniority 1
	g.Arrive(young)
	if g.start[0].Load() == 0 || g.start[1].Load() == 0 {
		t.Fatal("start stamps missing")
	}
	if g.start[0].Load() >= g.start[1].Load() {
		t.Fatal("older transaction must have the smaller stamp")
	}
	// An abort keeps the stamp; a commit clears it.
	g.TxAbort(old, 1, true)
	if g.start[0].Load() == 0 {
		t.Fatal("abort cleared seniority")
	}
	g.TxCommit(old, 2, 1)
	if g.start[0].Load() != 0 {
		t.Fatal("commit did not clear seniority")
	}
}

func TestThreadSlotClamping(t *testing.T) {
	// ThreadIDs beyond the state arrays must not panic.
	p := NewPolite(2)
	big := txid.Pair{Txn: 0, Thread: 9999}
	p.TxAbort(big, 1, true)
	p.Arrive(big)
	p.TxCommit(big, 2, 1)

	k := NewKarma(0, 2)
	k.TxAbort(big, 1, true)
	k.Arrive(big)

	g := NewGreedy(2)
	g.Arrive(big)
	g.TxCommit(big, 1, 0)
}
