package trace

import (
	"sort"
	"sync"

	"gstm/internal/stats"
	"gstm/internal/txid"
)

// Collector is the EventSink installed during profiling (and during guided
// runs, to measure them). It buffers raw commit/abort events with minimal
// synchronization and reconstructs the exact transaction sequence offline
// in Finalize, using each commit's unique write version as the global
// order.
type Collector struct {
	mu      sync.Mutex
	commits []commitEvent
	aborts  []abortEvent
}

type commitEvent struct {
	wv     uint64
	pair   txid.Packed
	aborts int32
}

type abortEvent struct {
	byWV  uint64
	pair  txid.Packed
	known bool
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// TxCommit implements tl2.EventSink.
func (c *Collector) TxCommit(p txid.Pair, wv uint64, aborts int) {
	c.mu.Lock()
	c.commits = append(c.commits, commitEvent{wv: wv, pair: p.Pack(), aborts: int32(aborts)})
	c.mu.Unlock()
}

// TxAbort implements tl2.EventSink.
func (c *Collector) TxAbort(p txid.Pair, byWV uint64, known bool) {
	c.mu.Lock()
	c.aborts = append(c.aborts, abortEvent{byWV: byWV, pair: p.Pack(), known: known})
	c.mu.Unlock()
}

// Trace is the finalized observation of one run: the ordered transaction
// sequence, per-thread abort histograms (number of aborts a transaction
// suffered before committing, keyed by thread), and summary counters.
type Trace struct {
	// Seq is the transaction sequence: one State per commit, in global
	// commit order.
	Seq []State

	// AbortHist maps each thread to the histogram of per-transaction abort
	// counts its commits experienced (the paper's abort distribution).
	AbortHist map[txid.ThreadID]*stats.Histogram

	// Commits and Aborts are the run's totals.
	Commits int
	Aborts  int

	// Unattributed counts aborts whose invalidating commit could not be
	// identified precisely (they are grouped with the collector's
	// best-effort guess, flagged by the runtime).
	Unattributed int
}

// Finalize reconstructs the transaction sequence: commits sorted by write
// version, each paired with the aborts attributed to it. The Collector may
// be reused after Finalize (it is reset).
func (c *Collector) Finalize() *Trace {
	c.mu.Lock()
	commits := c.commits
	aborts := c.aborts
	c.commits = nil
	c.aborts = nil
	c.mu.Unlock()

	sort.Slice(commits, func(i, j int) bool { return commits[i].wv < commits[j].wv })

	byCommit := make(map[uint64][]txid.Packed)
	unattributed := 0
	for _, a := range aborts {
		if !a.known {
			unattributed++
		}
		byCommit[a.byWV] = append(byCommit[a.byWV], a.pair)
	}

	tr := &Trace{
		Seq:          make([]State, 0, len(commits)),
		AbortHist:    make(map[txid.ThreadID]*stats.Histogram),
		Commits:      len(commits),
		Aborts:       len(aborts),
		Unattributed: unattributed,
	}
	for _, ce := range commits {
		st := NewState(byCommit[ce.wv], ce.pair)
		tr.Seq = append(tr.Seq, st)
		th := ce.pair.Unpack().Thread
		h := tr.AbortHist[th]
		if h == nil {
			h = stats.NewHistogram()
			tr.AbortHist[th] = h
		}
		// aborts is bounded by the retry count, always >= 0.
		_ = h.Add(int(ce.aborts))
	}
	return tr
}

// DistinctStates returns the number of distinct thread transactional states
// in the trace — the paper's non-determinism measure |S|.
func (t *Trace) DistinctStates() int {
	seen := make(map[Key]struct{}, len(t.Seq))
	for _, s := range t.Seq {
		seen[s.Key()] = struct{}{}
	}
	return len(seen)
}

// MergedAbortHist returns one histogram merging all threads' abort
// distributions.
func (t *Trace) MergedAbortHist() *stats.Histogram {
	h := stats.NewHistogram()
	for _, th := range t.AbortHist {
		h.Merge(th)
	}
	return h
}

// ThreadHistograms returns the per-thread histograms for threads 0..n-1 in
// order, substituting empty histograms for threads that never committed.
func (t *Trace) ThreadHistograms(n int) []*stats.Histogram {
	out := make([]*stats.Histogram, n)
	for i := range out {
		if h, ok := t.AbortHist[txid.ThreadID(i)]; ok {
			out[i] = h
		} else {
			out[i] = stats.NewHistogram()
		}
	}
	return out
}

// DistinctStatesAcross unions the distinct states of several traces,
// matching the paper's protocol of building the model (and counting
// non-determinism) over 20 runs.
func DistinctStatesAcross(traces []*Trace) int {
	seen := make(map[Key]struct{})
	for _, t := range traces {
		for _, s := range t.Seq {
			seen[s.Key()] = struct{}{}
		}
	}
	return len(seen)
}
