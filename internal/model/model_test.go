package model

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"

	"gstm/internal/trace"
	"gstm/internal/txid"
)

func pk(txn, thread int) txid.Packed {
	return txid.Pair{Txn: txid.TxnID(txn), Thread: txid.ThreadID(thread)}.Pack()
}

func st(commit txid.Packed, aborted ...txid.Packed) trace.State {
	return trace.NewState(aborted, commit)
}

// chain builds a run visiting the given states in order.
func chain(states ...trace.State) []trace.State { return states }

func TestBuildCountsTransitions(t *testing.T) {
	a, b, c := st(pk(0, 0)), st(pk(0, 1)), st(pk(0, 2))
	m := Build(2, [][]trace.State{
		chain(a, b, a, b, a, c),
		chain(a, b),
	})
	if m.NumStates() != 3 {
		t.Fatalf("NumStates = %d, want 3", m.NumStates())
	}
	// a→b occurred 3 times, a→c once.
	if got := m.TransitionProb(a.Key(), b.Key()); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("P(a→b) = %v, want 0.75", got)
	}
	if got := m.TransitionProb(a.Key(), c.Key()); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("P(a→c) = %v, want 0.25", got)
	}
	// No transition recorded across run boundaries (c at end of run 1,
	// a at start of run 2).
	if got := m.TransitionProb(c.Key(), a.Key()); got != 0 {
		t.Fatalf("cross-run transition recorded: %v", got)
	}
}

func TestEdgesSortedByProbability(t *testing.T) {
	a, b, c := st(pk(0, 0)), st(pk(0, 1)), st(pk(0, 2))
	m := Build(2, [][]trace.State{chain(a, b, a, b, a, c, a, b)})
	es := m.Edges(a.Key())
	if len(es) != 2 {
		t.Fatalf("edges = %d", len(es))
	}
	if es[0].To != b.Key() || es[0].Freq != 3 || es[1].To != c.Key() {
		t.Fatalf("edges not sorted: %+v", es)
	}
	var sum float64
	for _, e := range es {
		sum += e.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestUnknownStateQueries(t *testing.T) {
	m := New(2)
	if m.Edges("nope") != nil {
		t.Fatal("Edges of unknown state should be nil")
	}
	if m.TransitionProb("a", "b") != 0 {
		t.Fatal("prob of unknown state should be 0")
	}
	if m.Node("x") != nil {
		t.Fatal("Node of unknown state should be nil")
	}
}

func TestDestinationsTfactorRule(t *testing.T) {
	// Frequencies: b:8, c:4, d:1 out of 13. P_h = 8/13. With Tfactor 4 the
	// threshold is 2/13, so b and c qualify, d (1/13) does not.
	a, b, c, d := st(pk(0, 0)), st(pk(0, 1)), st(pk(0, 2)), st(pk(0, 3))
	var run []trace.State
	for i := 0; i < 8; i++ {
		run = append(run, a, b)
	}
	for i := 0; i < 4; i++ {
		run = append(run, a, c)
	}
	run = append(run, a, d)
	// Interleave so transitions come only from a: rebuild properly.
	m := New(2)
	for i := 0; i+1 < len(run); i += 2 {
		m.AddRun(run[i : i+2])
	}
	dests := m.Destinations(a.Key(), 4)
	if len(dests) != 2 {
		t.Fatalf("destinations = %d, want 2 (%+v)", len(dests), dests)
	}
	if dests[0].To != b.Key() || dests[1].To != c.Key() {
		t.Fatalf("wrong destinations: %+v", dests)
	}
	// Tfactor 1 keeps only the top edge; a huge Tfactor keeps all.
	if got := len(m.Destinations(a.Key(), 1)); got != 1 {
		t.Fatalf("Tfactor=1 destinations = %d, want 1", got)
	}
	if got := len(m.Destinations(a.Key(), 100)); got != 3 {
		t.Fatalf("Tfactor=100 destinations = %d, want 3", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := st(pk(0, 0)), st(pk(0, 1))
	m1 := Build(2, [][]trace.State{chain(a, b)})
	m2 := Build(2, [][]trace.State{chain(a, b), chain(b, a)})
	m1.Merge(m2)
	if m1.Node(a.Key()).Out[b.Key()] != 2 {
		t.Fatalf("merged freq = %d, want 2", m1.Node(a.Key()).Out[b.Key()])
	}
	if m1.Node(b.Key()).Out[a.Key()] != 1 {
		t.Fatal("merge dropped b→a")
	}
	m1.Merge(nil) // must not panic
}

func TestSerializeRoundTrip(t *testing.T) {
	a, b, c := st(pk(0, 0), pk(1, 1)), st(pk(0, 1)), st(pk(2, 2), pk(0, 0), pk(1, 3))
	m := Build(8, [][]trace.State{
		chain(a, b, c, a, b, a, c),
		chain(c, b, a),
	})
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Threads != 8 {
		t.Fatalf("Threads = %d", got.Threads)
	}
	if got.NumStates() != m.NumStates() {
		t.Fatalf("NumStates = %d, want %d", got.NumStates(), m.NumStates())
	}
	for _, k := range m.Keys() {
		want := m.Node(k)
		gn := got.Node(k)
		if gn == nil {
			t.Fatalf("state %q missing after round trip", k)
		}
		if gn.Total != want.Total || len(gn.Out) != len(want.Out) {
			t.Fatalf("node %q mismatch: %+v vs %+v", k, gn, want)
		}
		for to, f := range want.Out {
			if gn.Out[to] != f {
				t.Fatalf("edge %q→%q freq %d, want %d", k, to, gn.Out[to], f)
			}
		}
	}
}

// TestBuildIsDeterministic: training is a pure function of the runs — the
// same runs, built again, serialize to identical bytes — however the
// maps the automaton is built from happen to iterate. The runs draw
// from a pool of states, some carrying aborts, so many edges tie on
// frequency and only the order Write imposes keeps the bytes fixed.
func TestBuildIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var pool []trace.State
	for i := 0; i < 48; i++ {
		var aborted []txid.Packed
		for j := 0; j < i%3; j++ {
			aborted = append(aborted, pk(rng.IntN(5), rng.IntN(4)))
		}
		pool = append(pool, st(pk(i%5, i%4), aborted...))
	}
	runs := make([][]trace.State, 4)
	for r := range runs {
		for i := 0; i < 600; i++ {
			runs[r] = append(runs[r], pool[rng.IntN(len(pool))])
		}
	}
	serialize := func() []byte {
		var buf bytes.Buffer
		if err := Build(4, runs).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := serialize()
	for i := 0; i < 5; i++ {
		if got := serialize(); !bytes.Equal(got, want) {
			t.Fatalf("build %d serialized to %d bytes differing from the first build's %d", i+2, len(got), len(want))
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("Read accepted garbage")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("Read accepted empty input")
	}
	bad := append([]byte{}, magic[:]...)
	bad = append(bad, 99) // unsupported version
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("Read accepted unknown version")
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/state_data"
	a, b := st(pk(0, 0)), st(pk(0, 1))
	m := Build(4, [][]trace.State{chain(a, b, a)})
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumStates() != 2 || got.Threads != 4 {
		t.Fatalf("loaded model wrong: states=%d threads=%d", got.NumStates(), got.Threads)
	}
}

func TestAnalyzerAcceptsBiasedModel(t *testing.T) {
	// One dominant edge and many rare ones per state: strongly guidable.
	states := make([]trace.State, 120)
	for i := range states {
		states[i] = st(pk(0, i))
	}
	var runs [][]trace.State
	for i := range states {
		next := states[(i+1)%len(states)]
		for r := 0; r < 40; r++ {
			runs = append(runs, chain(states[i], next)) // dominant
		}
		runs = append(runs, chain(states[i], states[(i+5)%len(states)]))
		runs = append(runs, chain(states[i], states[(i+7)%len(states)]))
	}
	m := Build(8, runs)
	rep := DefaultAnalyzer().Analyze(m)
	if !rep.Guidable {
		t.Fatalf("biased model rejected: %+v", rep)
	}
	if rep.Metric >= 50 {
		t.Fatalf("metric = %v, want < 50", rep.Metric)
	}
}

func TestAnalyzerRejectsUniformModel(t *testing.T) {
	// Every transition equally likely (the ssca2 shape): metric 100.
	states := make([]trace.State, 120)
	for i := range states {
		states[i] = st(pk(0, i))
	}
	var runs [][]trace.State
	for i := range states {
		for j := 1; j <= 3; j++ {
			runs = append(runs, chain(states[i], states[(i+j)%len(states)]))
		}
	}
	m := Build(8, runs)
	rep := DefaultAnalyzer().Analyze(m)
	if rep.Guidable {
		t.Fatalf("uniform model accepted: %+v", rep)
	}
	if rep.Metric != 100 {
		t.Fatalf("metric = %v, want 100", rep.Metric)
	}
}

func TestAnalyzerRejectsTinyModel(t *testing.T) {
	a, b := st(pk(0, 0)), st(pk(0, 1))
	m := Build(2, [][]trace.State{chain(a, b)})
	rep := DefaultAnalyzer().Analyze(m)
	if rep.Guidable {
		t.Fatal("2-state model accepted")
	}
	if rep.Reason == "" {
		t.Fatal("rejection must carry a reason")
	}
}

func TestGuideTableMembership(t *testing.T) {
	// a → b (common), a → c (rare). Table at Tfactor 4 should allow b's
	// participants from a, not c's.
	pa, pb, pc := pk(0, 0), pk(1, 1), pk(2, 2)
	a, b, c := st(pa), st(pb), st(pc)
	var runs [][]trace.State
	for i := 0; i < 20; i++ {
		runs = append(runs, chain(a, b))
	}
	runs = append(runs, chain(a, c))
	m := Build(2, runs)
	g := Compile(m, 4)
	if g.Tfactor() != 4 {
		t.Fatalf("Tfactor = %v", g.Tfactor())
	}
	ida := g.Lookup(a.Key())
	if ida == Unknown {
		t.Fatal("state a unknown in table")
	}
	if !g.Allowed(ida, pb) {
		t.Fatal("pb should be allowed from a")
	}
	if g.Allowed(ida, pc) {
		t.Fatal("pc should be blocked from a (low probability path)")
	}
	// A pair outside the model's universe lies in no destination set.
	if g.Allowed(ida, pk(7, 0)) || g.Allowed(ida, pk(0, 9)) {
		t.Fatal("a pair outside the universe should be blocked from a")
	}
	// Unknown state: always allowed.
	if g.Lookup("bogus-key!") != Unknown || !g.Allowed(Unknown, pc) {
		t.Fatal("unknown state must be Unknown and allow every pair")
	}
	// Terminal states (no outbound edges) are not retained.
	if g.Lookup(b.Key()) != Unknown {
		t.Fatal("terminal state should not be in compiled table")
	}
}

// TestGuideTableBitsMatchDestinations: over a model of many sites, threads
// and states, every row's bits are exactly the participants of the state's
// Tfactor destinations, for every pair of the universe and pairs just past
// it, and the universe's pairs have distinct indices.
func TestGuideTableBitsMatchDestinations(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 0))
	m := New(5)
	var states []trace.State
	for i := 0; i < 60; i++ {
		var ab []txid.Packed
		for j := r.IntN(3); j > 0; j-- {
			ab = append(ab, pk(r.IntN(9), r.IntN(5)))
		}
		states = append(states, trace.NewState(ab, pk(r.IntN(9), r.IntN(5))))
	}
	for i := 0; i < 2000; i++ {
		m.AddTransitionKeys(states[r.IntN(len(states))].Key(), states[r.IntN(len(states))].Key())
	}
	g := Compile(m, 4)
	idx := make(map[int]txid.Packed)
	for site := 0; site < 9; site++ {
		for thread := 0; thread < 5; thread++ {
			i, ok := g.PairIndex(pk(site, thread))
			if !ok || i < 0 || i >= g.NumPairs() {
				t.Fatalf("pair (%d,%d): index %d, %v of %d", site, thread, i, ok, g.NumPairs())
			}
			if q, dup := idx[i]; dup {
				t.Fatalf("pairs %v and (%d,%d) share index %d", q, site, thread, i)
			}
			idx[i] = pk(site, thread)
		}
	}
	retained := 0
	for _, k := range m.Keys() {
		want := map[txid.Packed]bool{}
		for _, e := range m.Destinations(k, 4) {
			st, _ := trace.ParseKey(e.To)
			for _, p := range st.Participants() {
				want[p] = true
			}
		}
		id := g.Lookup(k)
		if len(want) == 0 {
			if id != Unknown {
				t.Fatalf("terminal state %x retained", k)
			}
			continue
		}
		retained++
		for site := 0; site < 10; site++ {
			for thread := 0; thread < 6; thread++ {
				p := pk(site, thread)
				if got := g.Allowed(id, p); got != want[p] {
					t.Fatalf("state %x pair %v: Allowed %v, want %v", k, p, got, want[p])
				}
			}
		}
	}
	if g.NumStates() != retained {
		t.Fatalf("NumStates %d, want %d", g.NumStates(), retained)
	}
}

func TestExportJSON(t *testing.T) {
	a := st(pk(0, 6))            // {<a6>}
	bx := st(pk(1, 7), pk(0, 6)) // {<a6>, <b7>}
	m := Build(8, [][]trace.State{chain(a, bx, a, bx, a)})
	var buf bytes.Buffer
	if err := m.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Threads int `json:"threads"`
		States  []struct {
			State  string `json:"state"`
			Visits int64  `json:"visits"`
			Edges  []struct {
				To   string  `json:"to"`
				Prob float64 `json:"prob"`
			} `json:"edges"`
		} `json:"states"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Threads != 8 || len(decoded.States) != 2 {
		t.Fatalf("decoded: %+v", decoded)
	}
	found := false
	for _, s := range decoded.States {
		if s.State == "{<a6>, <b7>}" {
			found = true
		}
	}
	if !found {
		t.Fatalf("paper-notation state missing from JSON:\n%s", buf.String())
	}
}

func TestComputeStats(t *testing.T) {
	a, b, c := st(pk(0, 0)), st(pk(0, 1)), st(pk(0, 2))
	// a→b twice, a→c twice: uniform 2-way branch (entropy 1); b→a once.
	m := Build(4, [][]trace.State{chain(a, b, a, c), chain(a, c, a, b)})
	got := m.ComputeStats()
	if got.States != 3 {
		t.Fatalf("States = %d", got.States)
	}
	if got.Transitions != 6 {
		t.Fatalf("Transitions = %d", got.Transitions)
	}
	if got.Edges < 3 {
		t.Fatalf("Edges = %d", got.Edges)
	}
	if math.Abs(got.MeanEntropy-1) > 1e-9 {
		t.Fatalf("MeanEntropy = %v, want 1 (uniform branches)", got.MeanEntropy)
	}
	// SerializedBytes must match the real encoding exactly.
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got.SerializedBytes != buf.Len() {
		t.Fatalf("SerializedBytes = %d, actual encoding = %d", got.SerializedBytes, buf.Len())
	}
	// A deterministic chain has zero entropy.
	det := Build(2, [][]trace.State{chain(a, b, a, b, a, b)})
	if e := det.ComputeStats().MeanEntropy; e != 0 {
		t.Fatalf("deterministic entropy = %v", e)
	}
}
