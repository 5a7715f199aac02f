package stamp

import (
	"strings"
	"testing"

	"gstm"
)

func TestLabyrinthAdjacent(t *testing.T) {
	const w = 8
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 1, true},
		{0, 8, true},
		{9, 8, true},
		{9, 17, true},
		{0, 9, false},  // diagonal
		{7, 8, false},  // row wrap: (7,0) and (0,1) are not neighbours
		{0, 0, false},  // same cell
		{0, 16, false}, // two rows apart
	}
	for _, c := range cases {
		if got := adjacent(w, c.a, c.b); got != c.want {
			t.Errorf("adjacent(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLabyrinthBFSFindsShortestPath(t *testing.T) {
	w := NewLabyrinth()
	inst, err := w.NewInstance(Params{Threads: 1, Size: Small, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lab := inst.(*labyrinthInstance)
	// On an empty grid the path length equals the Manhattan distance + 1.
	src := 0
	dst := 5*lab.w + 7 // (7, 5)
	path := lab.snapshotBFS(src, dst)
	if path == nil {
		t.Fatal("no path on empty grid")
	}
	if want := 5 + 7 + 1; len(path) != want {
		t.Fatalf("path length %d, want %d (shortest)", len(path), want)
	}
	// Path endpoints: BFS builds the path from dst back to src.
	if path[0] != dst || path[len(path)-1] != src {
		t.Fatalf("endpoints %d..%d, want %d..%d", path[0], path[len(path)-1], dst, src)
	}
	// Occupied destination: no path.
	lab.grid.Reset(dst, 99)
	if lab.snapshotBFS(src, dst) != nil {
		t.Fatal("path found to occupied destination")
	}
	// Walled-off destination: no path.
	lab.grid.Reset(dst, 0)
	for _, n := range []int{dst - 1, dst + 1, dst - lab.w, dst + lab.w} {
		lab.grid.Reset(n, 88)
	}
	if lab.snapshotBFS(src, dst) != nil {
		t.Fatal("path found through walls")
	}
}

func TestIntruderAttackStraddlesFragments(t *testing.T) {
	// The attack signature is injected before fragmentation, so it can
	// straddle fragment boundaries; detection must still find every
	// attack. Run several seeds to exercise different injection points.
	for seed := uint64(0); seed < 4; seed++ {
		w := NewIntruder()
		inst, err := w.NewInstance(Params{Threads: 2, Size: Small, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sys := gstm.NewSystem(gstm.Config{Threads: 2, Interleave: 6})
		if _, err := inst.Run(sys); err != nil {
			t.Fatal(err)
		}
		if err := inst.Validate(sys); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestIntruderGroundTruthHasAttacks(t *testing.T) {
	w := NewIntruder()
	inst, err := w.NewInstance(Params{Threads: 2, Size: Medium, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := inst.(*intruderInstance)
	if len(in.wantBad) == 0 {
		t.Fatal("no attack flows generated; detection path untested")
	}
	if len(in.wantBad) >= in.nFlows {
		t.Fatal("every flow is an attack; detection path trivial")
	}
}

func TestYadaChildrenDeterministic(t *testing.T) {
	w := NewYada()
	a, err := w.NewInstance(Params{Threads: 2, Size: Small, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.NewInstance(Params{Threads: 2, Size: Small, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ya, yb := a.(*yadaInstance), b.(*yadaInstance)
	ca, _ := ya.expectedWork()
	cb, _ := yb.expectedWork()
	if ca != cb {
		t.Fatalf("expected work differs across instances: %d vs %d", ca, cb)
	}
	if ca <= len(ya.seeds) {
		t.Fatalf("no children ever spawned: work %d, seeds %d", ca, len(ya.seeds))
	}
	// Depth cap: no element may exceed maxDepth.
	for _, s := range ya.seeds {
		stack := []yadaElem{s}
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if e.Depth > ya.maxDepth {
				t.Fatalf("element %d at depth %d > %d", e.ID, e.Depth, ya.maxDepth)
			}
			stack = append(stack, ya.children(e)...)
		}
	}
}

func TestVacationGuidedKeepsInvariants(t *testing.T) {
	w := NewVacation()
	const threads = 4
	sys := gstm.NewSystem(gstm.Config{Threads: threads, Interleave: 6})
	var traces []*gstm.Trace
	for i := 0; i < 2; i++ {
		inst, err := w.NewInstance(Params{Threads: threads, Size: Small, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		sys.StartProfiling()
		if _, err := inst.Run(sys); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, sys.StopProfiling())
		if err := inst.Validate(sys); err != nil {
			t.Fatal(err)
		}
	}
	m := gstm.BuildModel(threads, traces)
	sys.ForceGuidance(m, gstm.WithTfactor(2))
	inst, err := w.NewInstance(Params{Threads: threads, Size: Small, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Run(sys); err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(sys); err != nil {
		t.Fatalf("guided vacation broke booking invariants: %v", err)
	}
}

func TestGenomeUniqueSegmentsBounded(t *testing.T) {
	w := NewGenome()
	inst, err := w.NewInstance(Params{Threads: 2, Size: Small, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := inst.(*genomeInstance)
	if len(g.uniqueWant) == 0 {
		t.Fatal("no unique segments")
	}
	if len(g.uniqueWant) > g.geneLen {
		t.Fatalf("more unique segments (%d) than gene positions (%d)", len(g.uniqueWant), g.geneLen)
	}
	for s := range g.uniqueWant {
		if s < 0 || s >= int64(g.geneLen-g.segLen)+1 {
			t.Fatalf("segment start %d out of range", s)
		}
	}
}

func TestKMeansNearestIsArgmin(t *testing.T) {
	w := NewKMeans()
	inst, err := w.NewInstance(Params{Threads: 1, Size: Small, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	km := inst.(*kmeansInstance)
	for i := 0; i < 50; i++ {
		pt := km.points[i]
		got := km.nearest(pt)
		for c := 0; c < km.k; c++ {
			if sqDist(pt, km.centers[c]) < sqDist(pt, km.centers[got]) {
				t.Fatalf("nearest(%v) = %d but %d is closer", pt, got, c)
			}
		}
	}
}

func TestSSCA2NoSelfLoops(t *testing.T) {
	w := NewSSCA2()
	inst, err := w.NewInstance(Params{Threads: 1, Size: Small, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := inst.(*ssca2Instance)
	for i, e := range g.edges {
		if e.u == e.v {
			t.Fatalf("edge %d is a self-loop (%d)", i, e.u)
		}
		if e.weight <= 0 {
			t.Fatalf("edge %d has weight %d", i, e.weight)
		}
	}
}

func TestWorkloadDocNamesMatchTable(t *testing.T) {
	// The benchmarks must render in the paper's table order via All().
	var names []string
	for _, w := range All() {
		names = append(names, w.Name())
	}
	if got := strings.Join(names, ","); got != "genome,intruder,kmeans,labyrinth,ssca2,vacation,yada" {
		t.Fatalf("All() order = %s", got)
	}
}

func TestBayesExcludedFromAllButAvailable(t *testing.T) {
	for _, w := range All() {
		if w.Name() == "bayes" {
			t.Fatal("bayes must not be in All() (the paper excludes it)")
		}
	}
	if _, err := ByName("bayes"); err == nil {
		t.Fatal("ByName must reject bayes to keep the harness faithful")
	}
}
