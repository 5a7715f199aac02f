package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"gstm/internal/txid"
)

func pk(txn, thread int) txid.Packed {
	return txid.Pair{Txn: txid.TxnID(txn), Thread: txid.ThreadID(thread)}.Pack()
}

func TestNewStateNormalizes(t *testing.T) {
	ab := []txid.Packed{pk(2, 3), pk(0, 1), pk(2, 3), pk(0, 1)}
	s := NewState(ab, pk(3, 4))
	if len(s.Aborted) != 2 {
		t.Fatalf("dedup failed: %v", s.Aborted)
	}
	if s.Aborted[0] != pk(0, 1) || s.Aborted[1] != pk(2, 3) {
		t.Fatalf("sort failed: %v", s.Aborted)
	}
	// Input must not be mutated.
	if ab[0] != pk(2, 3) {
		t.Fatal("NewState mutated its input")
	}
}

func TestStateKeyRoundTrip(t *testing.T) {
	f := func(raw []uint32, commit uint32) bool {
		ab := make([]txid.Packed, len(raw))
		for i, r := range raw {
			ab[i] = txid.Packed(r)
		}
		s := NewState(ab, txid.Packed(commit))
		got, err := ParseKey(s.Key())
		if err != nil {
			return false
		}
		if got.Commit != s.Commit || len(got.Aborted) != len(s.Aborted) {
			return false
		}
		for i := range got.Aborted {
			if got.Aborted[i] != s.Aborted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseKeyRejectsMalformed(t *testing.T) {
	for _, k := range []Key{"", "abc", "abcde"} {
		if _, err := ParseKey(k); err == nil {
			t.Errorf("ParseKey(%q) accepted malformed key", k)
		}
	}
}

func TestKeysDistinguishStates(t *testing.T) {
	s1 := NewState([]txid.Packed{pk(0, 1)}, pk(1, 2))
	s2 := NewState([]txid.Packed{pk(0, 1)}, pk(1, 3))
	s3 := NewState(nil, pk(1, 2))
	if s1.Key() == s2.Key() || s1.Key() == s3.Key() || s2.Key() == s3.Key() {
		t.Fatal("distinct states share a key")
	}
	// Same logical state, different input order: same key.
	s4 := NewState([]txid.Packed{pk(4, 4), pk(0, 1)}, pk(1, 2))
	s5 := NewState([]txid.Packed{pk(0, 1), pk(4, 4)}, pk(1, 2))
	if s4.Key() != s5.Key() {
		t.Fatal("order-insensitive states have different keys")
	}
}

func TestStatePaperNotation(t *testing.T) {
	// The kmeans example from the paper: state {<a6>, <b7>} — transaction a
	// on thread 6 aborted by thread 7 committing b.
	s := NewState([]txid.Packed{pk(0, 6)}, pk(1, 7))
	if got := s.String(); got != "{<a6>, <b7>}" {
		t.Fatalf("String = %q, want {<a6>, <b7>}", got)
	}
	solo := NewState(nil, pk(2, 3))
	if got := solo.String(); got != "{<c3>}" {
		t.Fatalf("String = %q, want {<c3>}", got)
	}
}

func TestCollectorFinalizeOrdersAndGroups(t *testing.T) {
	c := NewCollector()
	t1 := txid.Pair{Txn: 0, Thread: 1}
	t2 := txid.Pair{Txn: 1, Thread: 2}
	t3 := txid.Pair{Txn: 0, Thread: 3}

	// Commit wv=5 by t2 aborts t1 and t3; later commit wv=9 by t1 aborts
	// nobody. Events arrive out of order, as they would concurrently.
	c.TxAbort(t3, 5, true)
	c.TxCommit(t1, 9, 2)
	c.TxCommit(t2, 5, 0)
	c.TxAbort(t1, 5, true)

	tr := c.Finalize()
	if tr.Commits != 2 || tr.Aborts != 2 {
		t.Fatalf("Commits/Aborts = %d/%d", tr.Commits, tr.Aborts)
	}
	if len(tr.Seq) != 2 {
		t.Fatalf("Seq len = %d", len(tr.Seq))
	}
	first := tr.Seq[0]
	if first.Commit != t2.Pack() || len(first.Aborted) != 2 {
		t.Fatalf("first state = %v", first)
	}
	second := tr.Seq[1]
	if second.Commit != t1.Pack() || len(second.Aborted) != 0 {
		t.Fatalf("second state = %v", second)
	}
	// Abort histogram: t1 committed after 2 aborts, t2 after 0.
	if tr.AbortHist[1].Count(2) != 1 {
		t.Fatalf("thread 1 hist = %v", tr.AbortHist[1])
	}
	if tr.AbortHist[2].Count(0) != 1 {
		t.Fatalf("thread 2 hist = %v", tr.AbortHist[2])
	}
	if tr.Unattributed != 0 {
		t.Fatalf("Unattributed = %d", tr.Unattributed)
	}
}

func TestCollectorReusableAfterFinalize(t *testing.T) {
	c := NewCollector()
	c.TxCommit(txid.Pair{Thread: 1}, 1, 0)
	if got := c.Finalize(); got.Commits != 1 {
		t.Fatalf("first Finalize commits = %d", got.Commits)
	}
	if got := c.Finalize(); got.Commits != 0 {
		t.Fatalf("second Finalize should be empty, got %d commits", got.Commits)
	}
	c.TxCommit(txid.Pair{Thread: 2}, 2, 1)
	if got := c.Finalize(); got.Commits != 1 {
		t.Fatalf("reuse failed: commits = %d", got.Commits)
	}
}

func TestDistinctStates(t *testing.T) {
	c := NewCollector()
	a := txid.Pair{Txn: 0, Thread: 0}
	b := txid.Pair{Txn: 0, Thread: 1}
	c.TxCommit(a, 1, 0)
	c.TxCommit(b, 2, 0)
	c.TxCommit(a, 3, 0) // repeats state {<a0>}
	tr := c.Finalize()
	if got := tr.DistinctStates(); got != 2 {
		t.Fatalf("DistinctStates = %d, want 2", got)
	}
}

func TestDistinctStatesAcross(t *testing.T) {
	mkTrace := func(threads ...int) *Trace {
		c := NewCollector()
		for i, th := range threads {
			c.TxCommit(txid.Pair{Txn: 0, Thread: txid.ThreadID(th)}, uint64(i+1), 0)
		}
		return c.Finalize()
	}
	t1 := mkTrace(0, 1)
	t2 := mkTrace(1, 2)
	if got := DistinctStatesAcross([]*Trace{t1, t2}); got != 3 {
		t.Fatalf("DistinctStatesAcross = %d, want 3", got)
	}
}

func TestThreadHistograms(t *testing.T) {
	c := NewCollector()
	c.TxCommit(txid.Pair{Txn: 0, Thread: 1}, 1, 3)
	tr := c.Finalize()
	hs := tr.ThreadHistograms(4)
	if len(hs) != 4 {
		t.Fatalf("len = %d", len(hs))
	}
	if hs[1].Count(3) != 1 {
		t.Fatalf("thread 1 hist = %v", hs[1])
	}
	for _, i := range []int{0, 2, 3} {
		if hs[i].Total() != 0 {
			t.Fatalf("thread %d should be empty", i)
		}
	}
}

func TestMergedAbortHist(t *testing.T) {
	c := NewCollector()
	c.TxCommit(txid.Pair{Txn: 0, Thread: 0}, 1, 2)
	c.TxCommit(txid.Pair{Txn: 0, Thread: 1}, 2, 2)
	h := c.Finalize().MergedAbortHist()
	if h.Count(2) != 2 {
		t.Fatalf("merged hist = %v", h)
	}
}

func TestCompareGroups(t *testing.T) {
	mk := func(abortsPerCommit int, threads ...int) *Trace {
		c := NewCollector()
		wv := uint64(1)
		for _, th := range threads {
			c.TxCommit(txid.Pair{Txn: 0, Thread: txid.ThreadID(th)}, wv, abortsPerCommit)
			wv++
		}
		return c.Finalize()
	}
	groupA := []*Trace{mk(4, 0, 1), mk(4, 1, 2)} // states a0,a1,a2; tails j=4
	groupB := []*Trace{mk(1, 0, 1)}              // states a0,a1; tails j=1
	c := Compare(groupA, groupB)
	if c.NDA != 3 || c.NDB != 2 {
		t.Fatalf("ND = %d/%d", c.NDA, c.NDB)
	}
	if c.Shared != 2 || c.OnlyA != 1 || c.OnlyB != 0 {
		t.Fatalf("overlap = %d/%d/%d", c.Shared, c.OnlyA, c.OnlyB)
	}
	if got := c.NDReduction(); got < 33 || got > 34 {
		t.Fatalf("NDReduction = %v", got)
	}
	// tails: A threads 0/1/2 have tail 16; B threads 0/1 tail 1 → 93.75%.
	if got := c.MeanTailImprovement(); got != 93.75 {
		t.Fatalf("MeanTailImprovement = %v", got)
	}
	var sb strings.Builder
	c.Write(&sb)
	if !strings.Contains(sb.String(), "non-determinism") {
		t.Fatal("Write output missing header")
	}
}

func TestDumpRendersStates(t *testing.T) {
	c := NewCollector()
	c.TxAbort(txid.Pair{Txn: 0, Thread: 6}, 1, true)
	c.TxCommit(txid.Pair{Txn: 1, Thread: 7}, 1, 0)
	tr := c.Finalize()
	var sb strings.Builder
	Dump(&sb, tr, 10)
	out := sb.String()
	if !strings.Contains(out, "{<a6>, <b7>}") {
		t.Fatalf("Dump missing paper-notation state:\n%s", out)
	}
	if !strings.Contains(out, "commits=1 aborts=1") {
		t.Fatalf("Dump missing counters:\n%s", out)
	}
	// Truncation marker when maxStates < len(seq).
	c2 := NewCollector()
	for i := 0; i < 5; i++ {
		c2.TxCommit(txid.Pair{Txn: 0, Thread: 0}, uint64(i+1), 0)
	}
	var sb2 strings.Builder
	Dump(&sb2, c2.Finalize(), 2)
	if !strings.Contains(sb2.String(), "3 more states") {
		t.Fatalf("Dump truncation marker missing:\n%s", sb2.String())
	}
}
