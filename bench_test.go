// Experiment benchmarks: one per table and figure of the paper's
// evaluation, plus micro-benchmarks of the STM primitives and ablations of
// the design knobs (Tfactor, gate retries, interleave).
//
// The table/figure benchmarks share two cached experiment suites (8 and 16
// worker threads) built on first use with inputs scaled for a single-core
// machine; the timed region of each benchmark is only the rendering of the
// table, so `go test -bench=.` both regenerates every result and stays
// bounded. Each table is printed to stdout once, so the bench log doubles
// as the experiment report (see EXPERIMENTS.md for the paper-vs-measured
// comparison).
package gstm_test

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gstm"
	"gstm/internal/harness"
	"gstm/internal/libtm"
	"gstm/internal/stamp"
	"gstm/internal/tl2"
	"gstm/internal/trace"
	"gstm/internal/txid"
)

// ---------------------------------------------------------------------------
// Cached experiment suites
// ---------------------------------------------------------------------------

var (
	suiteOnce  sync.Map // threads → *sync.Once
	suiteCache sync.Map // threads → *harness.Suite

	synquakeOnce   sync.Once
	synquakeResult *harness.SynQuakeResult
	synquakeErr    error
)

// benchConfig returns the scaled-down experiment configuration used by the
// table/figure benchmarks.
func benchConfig(threads int) harness.Config {
	return harness.Config{
		Threads:     threads,
		TrainRuns:   4,
		Runs:        8,
		TrainSize:   stamp.Small,
		TestSize:    stamp.Small,
		Interleave:  6,
		Tfactor:     2,
		GateRetries: 16,
		Seed:        0xC0FFEE,
	}
}

func suiteFor(b *testing.B, threads int) *harness.Suite {
	b.Helper()
	onceAny, _ := suiteOnce.LoadOrStore(threads, &sync.Once{})
	onceAny.(*sync.Once).Do(func() {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		s := harness.NewSuite()
		for _, w := range stamp.All() {
			res, err := harness.RunBenchmark(w, benchConfig(threads))
			if err != nil {
				b.Fatalf("building %d-thread suite: %s: %v", threads, w.Name(), err)
			}
			s.Add(res)
		}
		suiteCache.Store(threads, s)
	})
	s, ok := suiteCache.Load(threads)
	if !ok {
		b.Fatalf("suite for %d threads failed to build", threads)
	}
	return s.(*harness.Suite)
}

func synquakeFor(b *testing.B) *harness.SynQuakeResult {
	b.Helper()
	synquakeOnce.Do(func() {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		synquakeResult, synquakeErr = harness.RunSynQuake(harness.SynQuakeConfig{
			Threads: 8, Players: 192, TrainFrames: 60, TestFrames: 150, TrainRuns: 2,
			Interleave: 6, Tfactor: 2, GateRetries: 16, Seed: 5,
		})
	})
	if synquakeErr != nil {
		b.Fatal(synquakeErr)
	}
	return synquakeResult
}

var printedSections sync.Map

// printOnce writes a section to stdout exactly once per process so repeated
// bench iterations do not spam the report.
func printOnce(section, content string) {
	if _, loaded := printedSections.LoadOrStore(section, true); !loaded {
		fmt.Fprintf(os.Stdout, "\n%s\n", content)
	}
}

// ---------------------------------------------------------------------------
// Tables and figures (STAMP)
// ---------------------------------------------------------------------------

func BenchmarkTableI_GuidanceMetric(b *testing.B) {
	s8, s16 := suiteFor(b, 8), suiteFor(b, 16)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		s8.WriteTableI(&sb)
		_ = s16 // both thread counts live in one suite table below
	}
	merged := mergedSuite(b)
	var out strings.Builder
	merged.WriteTableI(&out)
	printOnce("table1", out.String())
	if r := merged.Get("kmeans", 8); r != nil {
		b.ReportMetric(r.Report.Metric, "kmeans_metric_%")
	}
}

func BenchmarkTableIII_ModelStates(b *testing.B) {
	merged := mergedSuite(b)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		merged.WriteTableIII(&sb)
	}
	printOnce("table3", sb.String())
	if r := merged.Get("ssca2", 8); r != nil {
		b.ReportMetric(float64(r.Model.NumStates()), "ssca2_states")
	}
}

func BenchmarkTableIV_TailImprovement(b *testing.B) {
	merged := mergedSuite(b)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		merged.WriteTableIV(&sb)
	}
	printOnce("table4", sb.String())
	if r := merged.Get("kmeans", 8); r != nil {
		b.ReportMetric(r.TailImprovement(), "kmeans_tail_improvement_%")
	}
}

func BenchmarkFig4_Variance8(b *testing.B) {
	s := suiteFor(b, 8)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		s.WriteVarianceFigure(&sb, 8)
	}
	printOnce("fig4", sb.String())
}

func BenchmarkFig5_AbortTails8(b *testing.B) {
	s := suiteFor(b, 8)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		s.WriteAbortTailFigure(&sb, 8)
	}
	printOnce("fig5", sb.String())
}

func BenchmarkFig6_Variance16(b *testing.B) {
	s := suiteFor(b, 16)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		s.WriteVarianceFigure(&sb, 16)
	}
	printOnce("fig6", sb.String())
}

func BenchmarkFig7_AbortTails16(b *testing.B) {
	s := suiteFor(b, 16)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		s.WriteAbortTailFigure(&sb, 16)
	}
	printOnce("fig7", sb.String())
}

func BenchmarkFig8_SSCA2(b *testing.B) {
	merged := mergedSuite(b)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		for _, th := range []int{8, 16} {
			r := merged.Get("ssca2", th)
			if r == nil {
				continue
			}
			vi := r.VarianceImprovement()
			sum := 0.0
			for _, v := range vi {
				sum += v
			}
			fmt.Fprintf(&sb, "FIG 8 (ssca2, %d threads): guidable=%v, mean variance change %+.1f%%, slowdown %.2fx\n",
				th, r.Report.Guidable, sum/float64(len(vi)), r.Slowdown())
			fmt.Fprintf(&sb, "  abort tail (thread 4): default %q vs guided %q\n",
				r.Default.AbortHist[4%len(r.Default.AbortHist)].String(),
				r.Guided.AbortHist[4%len(r.Guided.AbortHist)].String())
		}
	}
	printOnce("fig8", sb.String())
}

func BenchmarkFig9_NonDeterminism(b *testing.B) {
	merged := mergedSuite(b)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		merged.WriteNonDeterminismFigure(&sb)
	}
	printOnce("fig9", sb.String())
	if r := merged.Get("kmeans", 8); r != nil {
		b.ReportMetric(r.NonDeterminismReduction(), "kmeans_nd_reduction_%")
	}
}

func BenchmarkFig10_Slowdown(b *testing.B) {
	merged := mergedSuite(b)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		merged.WriteSlowdownFigure(&sb)
	}
	printOnce("fig10", sb.String())
}

// mergedSuite combines the 8- and 16-thread suites into one for the
// two-column tables.
func mergedSuite(b *testing.B) *harness.Suite {
	s8, s16 := suiteFor(b, 8), suiteFor(b, 16)
	merged := harness.NewSuite()
	for _, w := range stamp.All() {
		if r := s8.Get(w.Name(), 8); r != nil {
			merged.Add(r)
		}
		if r := s16.Get(w.Name(), 16); r != nil {
			merged.Add(r)
		}
	}
	return merged
}

// ---------------------------------------------------------------------------
// Tables and figures (SynQuake)
// ---------------------------------------------------------------------------

func BenchmarkTableV_SynQuakeGuidance(b *testing.B) {
	res := synquakeFor(b)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		res.WriteTableV(&sb)
	}
	printOnce("table5", sb.String())
	b.ReportMetric(res.Report.Metric, "synquake_metric_%")
}

func BenchmarkFig11_SynQuake4Quadrants(b *testing.B) {
	benchSynQuakeQuest(b, "4quadrants", "fig11")
}

func BenchmarkFig12_SynQuakeCenterSpread(b *testing.B) {
	benchSynQuakeQuest(b, "4center_spread6", "fig12")
}

func benchSynQuakeQuest(b *testing.B, quest, section string) {
	res := synquakeFor(b)
	b.ResetTimer()
	var sb strings.Builder
	for i := 0; i < b.N; i++ {
		sb.Reset()
		for _, q := range res.Quests {
			if q.Quest != quest {
				continue
			}
			one := *res
			one.Quests = []harness.SynQuakeQuestResult{q}
			one.WriteFigures(&sb)
		}
	}
	printOnce(section, sb.String())
	for _, q := range res.Quests {
		if q.Quest == quest {
			b.ReportMetric(q.FrameVarianceImprovement(), "frame_var_improvement_%")
			b.ReportMetric(q.AbortRatioReduction(), "abort_reduction_%")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (design knobs called out in DESIGN.md)
// ---------------------------------------------------------------------------

func BenchmarkAblationTfactor(b *testing.B) {
	for _, tf := range []float64{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("tfactor=%g", tf), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			cfg := benchConfig(4)
			cfg.Tfactor = tf
			cfg.Runs = 6
			w, _ := stamp.ByName("kmeans")
			for i := 0; i < b.N; i++ {
				res, err := harness.RunBenchmark(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(res.NonDeterminismReduction(), "nd_reduction_%")
					b.ReportMetric(res.Slowdown(), "slowdown_x")
				}
			}
		})
	}
}

func BenchmarkAblationGateRetries(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			cfg := benchConfig(4)
			cfg.GateRetries = k
			cfg.Runs = 6
			w, _ := stamp.ByName("intruder")
			for i := 0; i < b.N; i++ {
				res, err := harness.RunBenchmark(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(res.Guided.AbortRatio(), "guided_abort_ratio")
					b.ReportMetric(res.Slowdown(), "slowdown_x")
				}
			}
		})
	}
}

func BenchmarkAblationInterleave(b *testing.B) {
	for _, il := range []int{0, 3, 6, 12} {
		b.Run(fmt.Sprintf("interleave=%d", il), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			w, _ := stamp.ByName("kmeans")
			for i := 0; i < b.N; i++ {
				sys := gstm.NewSystem(gstm.Config{Threads: 4, Interleave: il})
				inst, err := w.NewInstance(stamp.Params{Threads: 4, Size: stamp.Small, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := inst.Run(sys); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					c, a := sys.Stats()
					b.ReportMetric(float64(a)/float64(c), "abort_ratio")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// STM micro-benchmarks
// ---------------------------------------------------------------------------

func BenchmarkTL2ReadOnly(b *testing.B) {
	rt := tl2.New(tl2.Config{})
	v := tl2.NewVar(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(0, 0, func(tx *tl2.Tx) error {
			_ = tl2.Read(tx, v)
			return nil
		})
	}
}

func BenchmarkTL2ReadWrite(b *testing.B) {
	rt := tl2.New(tl2.Config{})
	v := tl2.NewVar(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(0, 0, func(tx *tl2.Tx) error {
			tl2.Write(tx, v, tl2.Read(tx, v)+1)
			return nil
		})
	}
}

func BenchmarkTL2TenVarTx(b *testing.B) {
	rt := tl2.New(tl2.Config{})
	arr := tl2.NewArray[int](10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(0, 0, func(tx *tl2.Tx) error {
			for j := 0; j < 10; j++ {
				tl2.WriteAt(tx, arr, j, tl2.ReadAt(tx, arr, j)+1)
			}
			return nil
		})
	}
}

func BenchmarkMutexBaselineRMW(b *testing.B) {
	// The uninstrumented lower bound the STM overhead is judged against.
	var mu sync.Mutex
	v := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		v++
		mu.Unlock()
	}
	_ = v
}

func BenchmarkLibTMReadWrite(b *testing.B) {
	rt := libtm.New(libtm.Config{})
	o := libtm.NewObj(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(0, 0, func(tx *libtm.Tx) error {
			libtm.Write(tx, o, libtm.Read(tx, o)+1)
			return nil
		})
	}
}

func BenchmarkStateKeyEncode(b *testing.B) {
	aborted := []txid.Packed{
		txid.Pair{Txn: 1, Thread: 2}.Pack(),
		txid.Pair{Txn: 3, Thread: 4}.Pack(),
		txid.Pair{Txn: 5, Thread: 6}.Pack(),
	}
	commit := txid.Pair{Txn: 7, Thread: 8}.Pack()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := trace.NewState(aborted, commit)
		_ = st.Key()
	}
}

func BenchmarkCollectorCommit(b *testing.B) {
	col := trace.NewCollector()
	p := txid.Pair{Txn: 1, Thread: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col.TxCommit(p, uint64(i+1), 0)
	}
	_ = col.Finalize()
}

func BenchmarkModelBuild(b *testing.B) {
	// Build a model from a realistic profiled trace.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	sys := gstm.NewSystem(gstm.Config{Threads: 4, Interleave: 6})
	w, _ := stamp.ByName("kmeans")
	inst, err := w.NewInstance(stamp.Params{Threads: 4, Size: stamp.Small, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	sys.StartProfiling()
	if _, err := inst.Run(sys); err != nil {
		b.Fatal(err)
	}
	tr := sys.StopProfiling()
	traces := []*gstm.Trace{tr}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := gstm.BuildModel(4, traces)
		if m.NumStates() == 0 {
			b.Fatal("empty model")
		}
	}
}

func BenchmarkModelSerialize(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	sys := gstm.NewSystem(gstm.Config{Threads: 4, Interleave: 6})
	w, _ := stamp.ByName("vacation")
	inst, err := w.NewInstance(stamp.Params{Threads: 4, Size: stamp.Small, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	sys.StartProfiling()
	if _, err := inst.Run(sys); err != nil {
		b.Fatal(err)
	}
	m := gstm.BuildModel(4, []*gstm.Trace{sys.StopProfiling()})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyComparison pits guided execution against the
// contention-manager policies of the paper's Related Work (Polite, Karma,
// Greedy) and a DeSTM-style deterministic round-robin, on the kmeans
// workload. The paper's argument: CMs compromise one thread over another
// and cannot reduce variance the way model-driven guidance does.
func BenchmarkPolicyComparison(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	w, err := stamp.ByName("kmeans")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig(8)
	cfg.Runs = 8
	var pc *harness.PolicyComparison
	for i := 0; i < b.N; i++ {
		pc, err = harness.ComparePolicies(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	pc.Write(&sb)
	printOnce("policy", sb.String())
	for _, row := range pc.Rows {
		if row.Policy == "guided" {
			b.ReportMetric(float64(row.Side.NonDeterminism), "guided_nd_states")
		}
		if row.Policy == "default" {
			b.ReportMetric(float64(row.Side.NonDeterminism), "default_nd_states")
		}
	}
}
