// Package model implements the paper's Thread State Automaton (TSA): a
// probabilistic finite automaton over thread transactional states built
// from profiled transaction sequences (Algorithm 1), the model analyzer
// that decides whether a model can reduce variance (Section IV), and the
// compiled guide table used by guided execution (Sections V–VI).
package model

import (
	"math"
	"sort"

	"gstm/internal/trace"
)

// TSA is the Thread State Automaton. Nodes are thread transactional states;
// each node records the observed frequency of every outbound transition.
// Transition probabilities are frequencies normalized by the node's total
// outbound count (Section II-B).
type TSA struct {
	Threads int // thread count the model was trained for (metadata)
	nodes   map[trace.Key]*Node
}

// Node is one TSA state with its outbound transition frequencies.
type Node struct {
	Key   trace.Key
	Out   map[trace.Key]int64
	Total int64
}

// Edge is a single outbound transition with its probability.
type Edge struct {
	To   trace.Key
	Freq int64
	Prob float64
}

// New returns an empty TSA for the given thread count.
func New(threads int) *TSA {
	return &TSA{Threads: threads, nodes: make(map[trace.Key]*Node)}
}

// Build runs Algorithm 1 over a set of profiled transaction sequences: for
// every consecutive pair (s_i, s_{i+1}) within a run it increments the
// transition frequency s_i → s_{i+1}. Runs are independent — no transition
// is recorded across run boundaries, matching the paper's per-run Tseq
// parsing.
func Build(threads int, runs [][]trace.State) *TSA {
	m := New(threads)
	for _, seq := range runs {
		m.AddRun(seq)
	}
	return m
}

// BuildFromTraces is Build over finalized traces.
func BuildFromTraces(threads int, traces []*trace.Trace) *TSA {
	runs := make([][]trace.State, len(traces))
	for i, t := range traces {
		runs[i] = t.Seq
	}
	return Build(threads, runs)
}

// AddRun folds one run's transaction sequence into the automaton.
func (m *TSA) AddRun(seq []trace.State) {
	for i := 0; i+1 < len(seq); i++ {
		from := seq[i].Key()
		to := seq[i+1].Key()
		n := m.nodes[from]
		if n == nil {
			n = &Node{Key: from, Out: make(map[trace.Key]int64)}
			m.nodes[from] = n
		}
		n.Out[to]++
		n.Total++
	}
	// Terminal states with no outbound edges still exist as nodes so that
	// state counts (Table III) include them.
	if len(seq) > 0 {
		last := seq[len(seq)-1].Key()
		if m.nodes[last] == nil {
			m.nodes[last] = &Node{Key: last, Out: make(map[trace.Key]int64)}
		}
	}
}

// NumStates returns the number of distinct states in the model (Table III).
func (m *TSA) NumStates() int { return len(m.nodes) }

// Node returns the node for key k, or nil when the state is not in the
// model.
func (m *TSA) Node(k trace.Key) *Node { return m.nodes[k] }

// Keys returns every state key, in deterministic (byte-sorted) order.
func (m *TSA) Keys() []trace.Key {
	ks := make([]trace.Key, 0, len(m.nodes))
	for k := range m.nodes {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Edges returns the outbound edges of k sorted by descending probability
// (ties broken by key for determinism). It returns nil for unknown states.
func (m *TSA) Edges(k trace.Key) []Edge {
	n := m.nodes[k]
	if n == nil || n.Total == 0 {
		return nil
	}
	es := make([]Edge, 0, len(n.Out))
	for to, f := range n.Out {
		es = append(es, Edge{To: to, Freq: f, Prob: float64(f) / float64(n.Total)})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Freq != es[j].Freq {
			return es[i].Freq > es[j].Freq
		}
		return es[i].To < es[j].To
	})
	return es
}

// TransitionProb returns P(from → to), or 0 when either state or the edge
// is absent.
func (m *TSA) TransitionProb(from, to trace.Key) float64 {
	n := m.nodes[from]
	if n == nil || n.Total == 0 {
		return 0
	}
	return float64(n.Out[to]) / float64(n.Total)
}

// Merge folds other into m, summing transition frequencies. Useful for
// combining models trained on different input quests (SynQuake trains on
// two quests).
func (m *TSA) Merge(other *TSA) {
	if other == nil {
		return
	}
	for k, on := range other.nodes {
		n := m.nodes[k]
		if n == nil {
			n = &Node{Key: k, Out: make(map[trace.Key]int64)}
			m.nodes[k] = n
		}
		for to, f := range on.Out {
			n.Out[to] += f
			n.Total += f
		}
	}
}

// destinations returns the destination set D of state k under the Tfactor
// rule: every edge whose probability is at least P_h / tfactor, where P_h
// is the highest outbound probability (Section VI).
func (m *TSA) destinations(k trace.Key, tfactor float64) []Edge {
	es := m.Edges(k)
	if len(es) == 0 || tfactor <= 0 {
		return nil
	}
	threshold := es[0].Prob / tfactor
	cut := len(es)
	for i, e := range es {
		if e.Prob < threshold {
			cut = i
			break
		}
	}
	return es[:cut]
}

// Destinations exposes the Tfactor-thresholded destination set (used by the
// analyzer, the compiler and the gstm model inspector).
func (m *TSA) Destinations(k trace.Key, tfactor float64) []Edge {
	return m.destinations(k, tfactor)
}

// AddTransitionKeys records a single observed transition between two
// already-encoded states, for building small models by hand (tests and
// adversarial fixtures); Build/AddRun build models from traces.
func (m *TSA) AddTransitionKeys(from, to trace.Key) {
	n := m.nodes[from]
	if n == nil {
		n = &Node{Key: from, Out: make(map[trace.Key]int64)}
		m.nodes[from] = n
	}
	n.Out[to]++
	n.Total++
	if m.nodes[to] == nil {
		m.nodes[to] = &Node{Key: to, Out: make(map[trace.Key]int64)}
	}
}

// Stats summarizes a model: state/edge counts, the byte size of its
// serialized form (the paper reports ~118KB at 8 threads and ~1.3MB at 16
// for its STAMP models), and the mean normalized entropy of the transition
// distributions (0 = fully deterministic transitions, 1 = uniform — the
// intuition the analyzer's guidance metric quantifies).
type Stats struct {
	States          int
	Edges           int
	Transitions     int64 // total observed transition count
	SerializedBytes int
	MeanEntropy     float64
}

// ComputeStats derives the model's summary statistics.
func (m *TSA) ComputeStats() Stats {
	s := Stats{States: m.NumStates()}
	entropySum, branchStates := 0.0, 0
	var keyBytes int
	for k, n := range m.nodes {
		keyBytes += len(k)
		s.Edges += len(n.Out)
		s.Transitions += n.Total
		if n.Total == 0 || len(n.Out) < 2 {
			continue
		}
		h := 0.0
		for _, f := range n.Out {
			p := float64(f) / float64(n.Total)
			if p > 0 {
				h -= p * math.Log2(p)
			}
		}
		entropySum += h / math.Log2(float64(len(n.Out)))
		branchStates++
	}
	if branchStates > 0 {
		s.MeanEntropy = entropySum / float64(branchStates)
	}
	// Serialized form: header (13B) + per state (2B length + key) +
	// per state edge count (4B) + per edge (4B index + 8B freq).
	s.SerializedBytes = 13 + keyBytes + s.States*6 + s.Edges*12
	return s
}
