package guide_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"gstm"
	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/stamp"
	"gstm/internal/telemetry"
	"gstm/internal/trace"
	"gstm/internal/txid"
)

// refTracker is the reference the controller must agree with: the guide
// table as a map of allowed-pair sets per state key, and a tracker that
// keys every state by its string, keeps aborts in a map by write version
// (deleted as their commit is finalized, and swept every 1024 commits of
// the ones more than 256 versions old) and tallies gate decisions by key.
type refTracker struct {
	allowed  map[trace.Key]map[txid.Packed]bool
	aborts   map[uint64][]txid.Packed
	pendWV   uint64
	pendPair txid.Packed
	hasPend  bool
	seen     uint64
	cur      trace.Key // "" until the first finalized commit
	latest   trace.Key // "" until the first commit
	counts   map[trace.Key]*[3]uint64
}

func newRef(m *model.TSA, tfactor float64) *refTracker {
	r := &refTracker{
		allowed: make(map[trace.Key]map[txid.Packed]bool),
		aborts:  make(map[uint64][]txid.Packed),
		counts:  make(map[trace.Key]*[3]uint64),
	}
	for _, k := range m.Keys() {
		dests := m.Destinations(k, tfactor)
		if len(dests) == 0 {
			continue
		}
		set := make(map[txid.Packed]bool)
		for _, e := range dests {
			st, err := trace.ParseKey(e.To)
			if err != nil {
				continue
			}
			for _, p := range st.Participants() {
				set[p] = true
			}
		}
		r.allowed[k] = set
	}
	return r
}

func (r *refTracker) commit(p txid.Pair, wv uint64) {
	if r.hasPend {
		delete(r.aborts, r.pendWV)
		r.cur = r.latest
	}
	r.pendWV, r.pendPair, r.hasPend = wv, p.Pack(), true
	r.latest = trace.NewState(r.aborts[wv], r.pendPair).Key()
	r.seen++
	if r.seen%1024 == 0 {
		for k := range r.aborts {
			if k+256 < wv {
				delete(r.aborts, k)
			}
		}
	}
}

func (r *refTracker) abort(p txid.Pair, byWV uint64) {
	r.aborts[byWV] = append(r.aborts[byWV], p.Pack())
	if r.hasPend && byWV == r.pendWV {
		r.latest = trace.NewState(r.aborts[byWV], r.pendPair).Key()
	}
}

// judge books one decision on p in state k and returns it: a pass when k
// is the bootstrap state, unknown, or lists p; an escape otherwise (a gate
// with one retry escapes whatever it refuses when nothing else runs).
func (r *refTracker) judge(k trace.Key, p txid.Pair) telemetry.GateOutcome {
	o := telemetry.GatePass
	if set, ok := r.allowed[k]; ok && k != "" && !set[p.Pack()] {
		o = telemetry.GateEscape
	}
	c := r.counts[k]
	if c == nil {
		c = new([3]uint64)
		r.counts[k] = c
	}
	c[0]++
	if o == telemetry.GateEscape {
		c[2]++
	}
	return o
}

// event is one commit or abort of a recorded or synthetic stream.
type event struct {
	commit bool
	p      txid.Pair
	wv     uint64
}

// replay feeds events to a fresh controller over m's table and to the
// reference, and fails on the first disagreement: the current state after
// every event, Check of every probe after every event, Arrive of every
// probe after every commit, and at the end the gate totals and the
// per-state tallies in the controller's telemetry.
func replay(t *testing.T, m *model.TSA, events []event, probes []txid.Pair) {
	t.Helper()
	const tfactor = 4
	tel := telemetry.NewDetached("equiv")
	c := guide.NewController(model.Compile(m, tfactor), guide.WithGateRetries(1), guide.WithTelemetry(tel))
	r := newRef(m, tfactor)
	var judged [3]uint64 // passed, held, escaped
	for i, e := range events {
		if e.commit {
			c.TxCommit(e.p, e.wv, 0)
			r.commit(e.p, e.wv)
		} else {
			c.TxAbort(e.p, e.wv, true)
			r.abort(e.p, e.wv)
		}
		k, ok := c.CurrentState()
		if k != r.cur || ok != (r.cur != "") {
			t.Fatalf("event %d %+v: current state %x (%v), reference %x", i, e, k, ok, r.cur)
		}
		for _, p := range probes {
			got, want := c.Check(p), r.judge(r.latest, p)
			if got != want {
				t.Fatalf("event %d %+v: Check(%v) in %x = %v, reference %v", i, e, p, r.latest, got, want)
			}
			judged[want]++
			if !e.commit {
				continue
			}
			got, want = c.Arrive(p), r.judge(r.cur, p)
			if got != want {
				t.Fatalf("event %d %+v: Arrive(%v) in %x = %v, reference %v", i, e, p, r.cur, got, want)
			}
			judged[want]++
		}
	}
	if p, h, e := c.GateStats(); p != judged[0] || h != judged[1] || e != judged[2] {
		t.Fatalf("GateStats %d/%d/%d, reference %v", p, h, e, judged)
	}

	// Per-state tallies. States past the telemetry's cap share the
	// overflow entry, which must then hold exactly the rest.
	got := make(map[string]telemetry.GateStateSnapshot)
	for _, g := range tel.Snapshot().GateStates {
		got[g.State] = g
	}
	var rest [3]uint64
	for k, w := range r.counts {
		label := "(bootstrap)"
		if k != "" {
			st, err := trace.ParseKey(k)
			if err != nil {
				t.Fatal(err)
			}
			label = st.String()
		}
		g, ok := got[label]
		if !ok {
			rest[0], rest[1], rest[2] = rest[0]+w[0], rest[1]+w[1], rest[2]+w[2]
			continue
		}
		if g.Visits != w[0] || g.Holds != w[1] || g.Escapes != w[2] {
			t.Fatalf("state %s: telemetry %+v, reference %v", label, g, *w)
		}
		delete(got, label)
	}
	if g := got[guide.OverflowState]; g.Visits != rest[0] || g.Holds != rest[1] || g.Escapes != rest[2] {
		t.Fatalf("overflow entry %+v, reference states without an entry sum to %v", g, rest)
	}
	delete(got, guide.OverflowState)
	if len(got) != 0 {
		t.Fatalf("telemetry has states the reference never judged: %v", got)
	}
	t.Logf("%d events, %d states judged, %d outside the telemetry cap", len(events), len(r.counts), rest[0])
}

// probesOf returns every pair of m's universe — the cross product of the
// sites and threads its states name — and two pairs it has never seen: an
// unseen site on a seen thread and a seen site on an unseen thread.
func probesOf(m *model.TSA) []txid.Pair {
	sites, threads := map[txid.TxnID]bool{}, map[txid.ThreadID]bool{}
	maxSite, maxThread := txid.TxnID(0), txid.ThreadID(0)
	for _, k := range m.Keys() {
		st, err := trace.ParseKey(k)
		if err != nil {
			continue
		}
		for _, p := range st.Participants() {
			q := p.Unpack()
			sites[q.Txn], threads[q.Thread] = true, true
			maxSite, maxThread = max(maxSite, q.Txn), max(maxThread, q.Thread)
		}
	}
	var out []txid.Pair
	for s := range sites {
		for th := range threads {
			out = append(out, txid.Pair{Txn: s, Thread: th})
		}
	}
	return append(out, txid.Pair{Txn: maxSite + 1, Thread: 0}, txid.Pair{Txn: 0, Thread: maxThread + 1})
}

// recorder captures a run's raw event stream in delivery order.
type recorder struct {
	mu     sync.Mutex
	events []event
}

func (r *recorder) TxCommit(p txid.Pair, wv uint64, _ int) {
	r.mu.Lock()
	r.events = append(r.events, event{commit: true, p: p, wv: wv})
	r.mu.Unlock()
}

func (r *recorder) TxAbort(p txid.Pair, byWV uint64, _ bool) {
	r.mu.Lock()
	r.events = append(r.events, event{p: p, wv: byWV})
	r.mu.Unlock()
}

// TestControllerMatchesReferenceOnSTAMP replays the Tseq of a short guided
// kmeans run at 4 threads, as its sinks received it, through the controller
// and the reference.
func TestControllerMatchesReferenceOnSTAMP(t *testing.T) {
	const threads = 4
	w, err := stamp.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	sys := gstm.NewSystem(gstm.Config{Threads: threads, Interleave: 8})
	defer sys.Close()
	run := func(seed uint64) {
		t.Helper()
		inst, err := w.NewInstance(stamp.Params{Threads: threads, Size: stamp.Small, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Run(sys); err != nil {
			t.Fatal(err)
		}
		if err := inst.Validate(sys); err != nil {
			t.Fatal(err)
		}
	}
	var traces []*gstm.Trace
	for seed := uint64(1); seed <= 2; seed++ {
		sys.StartProfiling()
		run(seed)
		traces = append(traces, sys.StopProfiling())
	}
	m := gstm.BuildModel(threads, traces)
	sys.ForceGuidance(m)
	rec := &recorder{}
	sys.SetTap(rec)
	run(3)
	sys.SetTap(nil)

	aborts := 0
	for _, e := range rec.events {
		if !e.commit {
			aborts++
		}
	}
	t.Logf("guided kmeans: %d model states, %d events, %d aborts", m.NumStates(), len(rec.events), aborts)
	replay(t, m, rec.events, probesOf(m))
}

// TestControllerMatchesReferenceOnSyntheticStream replays a stream built to
// reach every case the abort ring and the interning treat apart: aborts
// reported before their commit, against the pending commit (some twice),
// against older commits inside the window and against commits past it,
// commits by pairs outside the model's universe, and more distinct states
// than the controller interns or the telemetry tallies apart.
func TestControllerMatchesReferenceOnSyntheticStream(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 1))
	pair := func(site, thread int) txid.Pair {
		return txid.Pair{Txn: txid.TxnID(site), Thread: txid.ThreadID(thread)}
	}
	modelPair := func() txid.Pair { return pair(rng.IntN(4), rng.IntN(4)) }

	// The model: random transitions among 40 states over 4 sites x 4
	// threads, a third of them with aborts.
	var states []trace.State
	for i := 0; i < 40; i++ {
		var ab []txid.Packed
		if i%3 == 0 {
			ab = append(ab, modelPair().Pack(), modelPair().Pack())
		}
		states = append(states, trace.NewState(ab, modelPair().Pack()))
	}
	m := model.New(4)
	for i := 0; i < 3000; i++ {
		m.AddTransitionKeys(states[rng.IntN(len(states))].Key(), states[rng.IntN(len(states))].Key())
	}

	var events []event
	const mixed, fresh = 1500, guide.MaxInterned + 400
	wv := uint64(0)
	for i := 0; i < mixed+fresh; i++ {
		wv++
		committer := modelPair()
		if rng.IntN(10) == 0 {
			committer = pair(4+rng.IntN(3), rng.IntN(6)) // outside the universe
		}
		if rng.IntN(4) == 0 { // reported before the commit event
			events = append(events, event{p: modelPair(), wv: wv})
		}
		events = append(events, event{commit: true, p: committer, wv: wv})
		if i >= mixed { // a state never seen before, past every bound
			events = append(events, event{p: pair(100+i, rng.IntN(4)), wv: wv})
		}
		for n := rng.IntN(3); n > 0; n-- { // against the pending commit
			a := event{p: modelPair(), wv: wv}
			events = append(events, a)
			if rng.IntN(3) == 0 {
				events = append(events, a) // a duplicate report
			}
		}
		if back := uint64(1 + rng.IntN(5)); rng.IntN(4) == 0 && back < wv {
			events = append(events, event{p: modelPair(), wv: wv - back}) // an older commit
		}
		if rng.IntN(8) == 0 { // past the window, some on the pending slot
			for _, back := range []uint64{guide.AbortWindow, guide.AbortWindow + 1, 300, 4 * guide.AbortWindow} {
				if back < wv {
					events = append(events, event{p: modelPair(), wv: wv - back})
				}
			}
		}
	}
	replay(t, m, events, probesOf(m))
}
