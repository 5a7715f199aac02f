package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gstm"
	"gstm/internal/harness"
	"gstm/internal/model"
	"gstm/internal/stamp"
	"gstm/internal/trace"
)

// modelCmd builds and inspects Thread State Automaton model files (the
// artifact's state_data). It can profile a STAMP benchmark into a model
// (the artifact's mcmc_data mode), print a model's states and transition
// structure, and run the Section IV analyzer on it.
//
//	gstm model -profile kmeans -threads 8 -o kmeans.state_data
//	gstm model -inspect kmeans.state_data
//	gstm model -inspect kmeans.state_data -top 20 -tfactor 4
func modelCmd(fs *flag.FlagSet, args []string) {
	var (
		profile  = fs.String("profile", "", "STAMP benchmark to profile into a model")
		inspect  = fs.String("inspect", "", "model file to inspect")
		out      = fs.String("o", "state_data", "output path for -profile")
		size     = fs.String("size", "medium", "training input size")
		top      = fs.Int("top", 10, "states to print during -inspect (by visit frequency)")
		asJSON   = fs.Bool("json", false, "emit the inspected model as JSON instead of text")
		traceDir = fs.String("savetraces", "", "directory to also save each profiling run's transaction sequence into")
	)
	cfg := harness.Config{Threads: 8, TrainRuns: 12, Interleave: 6, Tfactor: 4, Seed: 0xC0FFEE}
	parseExperiment(fs, args, &cfg, "runs", "k", "metrics-addr")

	switch {
	case *profile != "":
		w, err := stamp.ByName(*profile)
		exitOn(err)
		cfg.TrainSize = parseSize(*size)
		traces, m, err := harness.Train(w, cfg)
		exitOn(err)
		for run, tr := range traces {
			if *traceDir != "" {
				exitOn(trace.SaveTrace(tr, fmt.Sprintf("%s/%s_run%02d.tseq", *traceDir, *profile, run)))
			}
			fmt.Fprintf(os.Stderr, "run %d: %d commits, %d aborts, %d distinct states\n",
				run, tr.Commits, tr.Aborts, tr.DistinctStates())
		}
		exitOn(gstm.SaveModel(m, *out))
		fmt.Printf("wrote %s: %d states from %d runs of %s (%d threads, %s input)\n",
			*out, m.NumStates(), len(traces), *profile, cfg.Threads, *size)
	case *inspect != "":
		exitOn(inspectModel(*inspect, *top, cfg.Tfactor, *asJSON))
	default:
		fmt.Fprintf(os.Stderr, "%s: need -profile <bench> or -inspect <file>\n", prog)
		fs.Usage()
		os.Exit(2)
	}
}

func inspectModel(path string, top int, tfactor float64, asJSON bool) error {
	m, err := model.Load(path)
	if err != nil {
		return err
	}
	if asJSON {
		return m.ExportJSON(os.Stdout)
	}
	an := model.DefaultAnalyzer()
	an.Tfactor = tfactor
	rep := an.Analyze(m)
	ms := m.ComputeStats()
	fmt.Printf("model: %d states, %d edges, %d transitions, ~%.1fKB serialized, mean transition entropy %.2f, trained for %d threads\n",
		ms.States, ms.Edges, ms.Transitions, float64(ms.SerializedBytes)/1024, ms.MeanEntropy, m.Threads)
	fmt.Printf("analyzer: guidance metric %.0f%%, guidable=%v", rep.Metric, rep.Guidable)
	if !rep.Guidable {
		fmt.Printf(" (%s)", rep.Reason)
	}
	fmt.Println()

	// Rank states by total outbound frequency (visit count).
	keys := m.Keys()
	sort.SliceStable(keys, func(i, j int) bool { return m.Node(keys[i]).Total > m.Node(keys[j]).Total })
	top = min(top, len(keys))
	fmt.Printf("top %d states by visits:\n", top)
	for _, k := range keys[:top] {
		st, err := trace.ParseKey(k)
		if err != nil {
			return err
		}
		fmt.Printf("  %-40s visits=%-6d destinations(Tfactor=%g): ", st, m.Node(k).Total, tfactor)
		for i, e := range m.Destinations(k, tfactor) {
			if i > 0 {
				fmt.Print(", ")
			}
			to, err := trace.ParseKey(e.To)
			if err != nil {
				return err
			}
			fmt.Printf("%s(%.2f)", to, e.Prob)
			if i == 4 {
				fmt.Print(", ...")
				break
			}
		}
		fmt.Println()
	}
	return nil
}

// traceCmd inspects and compares on-disk transaction-sequence logs (.tseq
// files written by gstm model -savetraces). It replaces the artifact's
// post-processing scripts: dumping a run's states in the paper's notation,
// and diffing a default group against a guided group for non-determinism
// and abort-tail changes.
//
//	gstm trace -dump run00.tseq
//	gstm trace -diff "default_*.tseq=guided_*.tseq"
func traceCmd(fs *flag.FlagSet, args []string) {
	var (
		dump      = fs.String("dump", "", "trace file to dump")
		diff      = fs.String("diff", "", "two glob patterns separated by '=': groupA=groupB")
		maxStates = fs.Int("n", 40, "states to print during -dump (0 = all)")
	)
	_ = fs.Parse(args)

	switch {
	case *dump != "":
		t, err := trace.LoadTrace(*dump)
		exitOn(err)
		trace.Dump(os.Stdout, t, *maxStates)
	case *diff != "":
		a, b, ok := strings.Cut(*diff, "=")
		if !ok {
			exitOn(fmt.Errorf("-diff wants groupA=groupB glob patterns, got %q", *diff))
		}
		groupA, groupB := loadGroup(a), loadGroup(b)
		fmt.Printf("A: %d traces (%s)\nB: %d traces (%s)\n", len(groupA), a, len(groupB), b)
		trace.Compare(groupA, groupB).Write(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "%s: need -dump <file> or -diff 'a*=b*'\n", prog)
		fs.Usage()
		os.Exit(2)
	}
}

// loadGroup loads every trace matching pattern, exiting on any failure.
func loadGroup(pattern string) []*trace.Trace {
	paths, err := filepath.Glob(pattern)
	exitOn(err)
	if len(paths) == 0 {
		exitOn(fmt.Errorf("no traces match %q", pattern))
	}
	out := make([]*trace.Trace, 0, len(paths))
	for _, p := range paths {
		t, err := trace.LoadTrace(p)
		if err != nil {
			exitOn(fmt.Errorf("%s: %w", p, err))
		}
		out = append(out, t)
	}
	return out
}
