package stamp

import (
	"errors"
	"testing"
	"time"

	"gstm"
)

// runOnce executes one instance of w and validates it.
func runOnce(t *testing.T, w Workload, p Params, sys *gstm.System) []time.Duration {
	t.Helper()
	inst, err := w.NewInstance(p)
	if err != nil {
		t.Fatalf("%s: NewInstance: %v", w.Name(), err)
	}
	durs, err := inst.Run(sys)
	if err != nil {
		t.Fatalf("%s: Run: %v", w.Name(), err)
	}
	if len(durs) != p.Threads {
		t.Fatalf("%s: %d durations for %d threads", w.Name(), len(durs), p.Threads)
	}
	for i, d := range durs {
		if d <= 0 {
			t.Fatalf("%s: thread %d has non-positive duration %v", w.Name(), i, d)
		}
	}
	if err := inst.Validate(sys); err != nil {
		t.Fatalf("%s: Validate: %v", w.Name(), err)
	}
	return durs
}

func TestAllBenchmarksSmallDefault(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			sys := gstm.NewSystem(gstm.Config{Threads: 4, Interleave: 8})
			runOnce(t, w, Params{Threads: 4, Size: Small, Seed: 1}, sys)
		})
	}
}

func TestAllBenchmarksMediumDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("medium inputs in -short mode")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			sys := gstm.NewSystem(gstm.Config{Threads: 8, Interleave: 8})
			runOnce(t, w, Params{Threads: 8, Size: Medium, Seed: 2}, sys)
		})
	}
}

// TestAllBenchmarksGuided profiles each benchmark, builds a model and
// re-runs it under forced guidance: results must stay correct whatever the
// gate does.
func TestAllBenchmarksGuided(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			const threads = 4
			sys := gstm.NewSystem(gstm.Config{Threads: threads, Interleave: 8})
			var traces []*gstm.Trace
			for run := 0; run < 2; run++ {
				sys.StartProfiling()
				runOnce(t, w, Params{Threads: threads, Size: Small, Seed: 3}, sys)
				traces = append(traces, sys.StopProfiling())
			}
			m := gstm.BuildModel(threads, traces)
			if m.NumStates() == 0 {
				t.Fatal("profiling produced an empty model")
			}
			sys.ForceGuidance(m)
			runOnce(t, w, Params{Threads: threads, Size: Small, Seed: 4}, sys)
		})
	}
}

func TestBenchmarksProduceAborts(t *testing.T) {
	// The contended benchmarks must produce aborts under interleaving —
	// otherwise the variance experiments are vacuous. ssca2 is exempt: its
	// near-zero abort rate is the paper's point. One small run can commit
	// without a single abort when the package's tests share two cores, so
	// the count is summed over three seeds.
	for _, name := range []string{"kmeans", "intruder", "yada"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var aborts uint64
			for seed := uint64(5); seed < 8; seed++ {
				sys := gstm.NewSystem(gstm.Config{Threads: 8, Interleave: 4})
				runOnce(t, w, Params{Threads: 8, Size: Small, Seed: seed}, sys)
				_, a := sys.Stats()
				aborts += a
			}
			if aborts == 0 {
				t.Errorf("%s: no aborts under three 8-thread interleaved runs", name)
			}
		})
	}
}

func TestSSCA2HasFarFewerAbortsThanKMeans(t *testing.T) {
	run := func(name string) float64 {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sys := gstm.NewSystem(gstm.Config{Threads: 8, Interleave: 4})
		runOnce(t, w, Params{Threads: 8, Size: Small, Seed: 6}, sys)
		commits, aborts := sys.Stats()
		return float64(aborts) / float64(commits)
	}
	ssca2 := run("ssca2")
	kmeans := run("kmeans")
	if ssca2 >= kmeans {
		t.Fatalf("abort ratio ssca2 %.4f >= kmeans %.4f; ssca2 should be near conflict-free", ssca2, kmeans)
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "yada"} {
		w, err := ByName(want)
		if err != nil {
			t.Fatalf("ByName(%q): %v", want, err)
		}
		if w.Name() != want {
			t.Fatalf("ByName(%q).Name() = %q", want, w.Name())
		}
	}
	if _, err := ByName("bayes"); err == nil {
		t.Fatal("bayes should be absent (excluded by the paper)")
	}
}

func TestSizeString(t *testing.T) {
	if Small.String() != "small" || Medium.String() != "medium" || Large.String() != "large" {
		t.Fatal("Size names wrong")
	}
	if Size(42).String() == "" {
		t.Fatal("unknown size should still render")
	}
}

func TestInvalidParams(t *testing.T) {
	for _, w := range All() {
		if _, err := w.NewInstance(Params{Threads: 0, Size: Small}); err == nil {
			t.Errorf("%s accepted zero threads", w.Name())
		}
		if _, err := w.NewInstance(Params{Threads: 2, Size: Size(99)}); err == nil {
			t.Errorf("%s accepted invalid size", w.Name())
		}
	}
}

func TestRunThreadsReportsBodyError(t *testing.T) {
	want := errors.New("thread failure")
	durs, err := RunThreads(3, func(th int) error {
		if th == 1 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	if len(durs) != 3 {
		t.Fatalf("durations = %d", len(durs))
	}
}

func TestDeterministicInputs(t *testing.T) {
	// Same seed → identical generated inputs (the STM interleaving is the
	// only non-determinism). Check via ssca2's edge list.
	w := NewSSCA2()
	a, err := w.NewInstance(Params{Threads: 2, Size: Small, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.NewInstance(Params{Threads: 2, Size: Small, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.(*ssca2Instance).edges, b.(*ssca2Instance).edges
	if len(ea) != len(eb) {
		t.Fatal("edge counts differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}
