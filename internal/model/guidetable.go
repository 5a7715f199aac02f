package model

import (
	"slices"

	"gstm/internal/trace"
	"gstm/internal/txid"
)

// GuideTable is the run-time form of a TSA, "cut down to exclude
// low-probability states and stored in an efficient bitwise structure"
// (Section VI). Every retained state gets a dense StateID, resolved once
// from its key (Lookup), and a row of one bit per (transaction, thread)
// pair of the model's universe: the bit is set when the pair participates
// in any high-probability destination state. A check is then a bit test
// (Allowed) — two slice loads to find the pair's bit and one word load.
//
// The pair universe is the cross product of the transaction sites and the
// threads that appear anywhere in the model. A pair outside it lies in no
// destination set. The rows cost retained states × sites × threads bits:
// a profiled program has a handful of sites and threads (a 16-thread,
// 10-site model spends 24 bytes a state).
type GuideTable struct {
	tfactor float64
	ids     map[trace.Key]StateID
	// sites and threads map a pair's raw site and thread to their dense
	// indices, -1 outside the universe; a pair's bit is
	// site*nThreads+thread, of nPairs.
	sites    []int32
	threads  []int32
	nThreads int
	nPairs   int
	words    int      // uint64 words per row
	rows     []uint64 // row id at [id*words, (id+1)*words)
}

// StateID is a retained state's dense index in a GuideTable.
type StateID int32

// Unknown is the StateID of every state the table does not retain. It
// never blocks a pair: training cannot capture all states, so execution
// is allowed to continue until the current state changes into a known one
// (Section V).
const Unknown StateID = -1

// Compile builds the guide table for m under the given Tfactor (paper
// default 4; some machines need 6 per the artifact notes). Terminal states
// (no outbound edges) are not retained; they are Unknown at run time.
func Compile(m *TSA, tfactor float64) *GuideTable {
	if tfactor <= 0 {
		tfactor = 4
	}
	g := &GuideTable{tfactor: tfactor, ids: make(map[trace.Key]StateID)}
	type retained struct {
		key   trace.Key
		pairs []txid.Packed // participants of its destinations
	}
	var kept []retained
	var siteSet, threadSet []uint16
	note := func(p txid.Packed) {
		pr := p.Unpack()
		siteSet = append(siteSet, uint16(pr.Txn))
		threadSet = append(threadSet, uint16(pr.Thread))
	}
	for _, k := range m.Keys() {
		if st, err := trace.ParseKey(k); err == nil {
			for _, p := range st.Participants() {
				note(p)
			}
		}
		dests := m.destinations(k, tfactor)
		if len(dests) == 0 {
			continue
		}
		r := retained{key: k}
		for _, e := range dests {
			st, err := trace.ParseKey(e.To)
			if err != nil {
				continue // defensively skip malformed keys
			}
			for _, p := range st.Participants() {
				note(p)
				r.pairs = append(r.pairs, p)
			}
		}
		kept = append(kept, r)
	}
	var nSites int
	g.sites, nSites = denseIndex(siteSet)
	g.threads, g.nThreads = denseIndex(threadSet)
	g.nPairs = nSites * g.nThreads
	g.words = (g.nPairs + 63) / 64
	g.rows = make([]uint64, len(kept)*g.words)
	for id, r := range kept {
		g.ids[r.key] = StateID(id)
		row := g.rows[id*g.words : (id+1)*g.words]
		for _, p := range r.pairs {
			i, _ := g.PairIndex(p)
			row[i/64] |= 1 << (i % 64)
		}
	}
	return g
}

// denseIndex returns the table from each raw value in vals to its rank
// among the distinct values, -1 for the values in between, and the number
// of distinct values.
func denseIndex(vals []uint16) ([]int32, int) {
	slices.Sort(vals)
	vals = slices.Compact(vals)
	if len(vals) == 0 {
		return nil, 0
	}
	idx := make([]int32, int(vals[len(vals)-1])+1)
	for i := range idx {
		idx[i] = -1
	}
	for i, v := range vals {
		idx[v] = int32(i)
	}
	return idx, len(vals)
}

// Tfactor returns the threshold divisor the table was compiled with.
func (g *GuideTable) Tfactor() float64 { return g.tfactor }

// NumStates returns the number of states retained in the compiled table.
func (g *GuideTable) NumStates() int { return len(g.ids) }

// NumPairs returns the size of the table's pair universe: PairIndex
// answers in [0, NumPairs()).
func (g *GuideTable) NumPairs() int { return g.nPairs }

// Lookup returns the dense id of state k, or Unknown when the table does
// not retain it. It hashes the key; callers resolve each state once.
func (g *GuideTable) Lookup(k trace.Key) StateID {
	if id, ok := g.ids[k]; ok {
		return id
	}
	return Unknown
}

// PairIndex returns p's dense index in the table's pair universe, and
// false when p lies outside it.
func (g *GuideTable) PairIndex(p txid.Packed) (int, bool) {
	site, thread := int(p>>16), int(p&0xffff)
	if site >= len(g.sites) || thread >= len(g.threads) {
		return 0, false
	}
	s, t := g.sites[site], g.threads[thread]
	if s < 0 || t < 0 {
		return 0, false
	}
	return int(s)*g.nThreads + int(t), true
}

// Allowed reports whether pair p participates in any high-probability
// destination state of state s. An Unknown state allows every pair.
func (g *GuideTable) Allowed(s StateID, p txid.Packed) bool {
	if s == Unknown {
		return true
	}
	i, ok := g.PairIndex(p)
	if !ok {
		return false
	}
	u := uint(i)
	return g.rows[int(s)*g.words+int(u/64)]&(1<<(u%64)) != 0
}
