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
	"gstm/internal/wal"
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
		profile = fs.String("profile", "", "STAMP benchmark to profile into a model")
		inspect = fs.String("inspect", "", "model file to inspect")
		out     = fs.String("o", "state_data", "output path for -profile")
		size    = fs.String("size", "medium", "training input size")
		top     = fs.Int("top", 10, "states to print during -inspect (by visit frequency)")
		asJSON  = fs.Bool("json", false, "emit the inspected model as JSON instead of text")
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

// traceCmd replaces the artifact's post-processing scripts: it dumps and
// diffs the Tseqs of WAL shard directories (e.g. <wal-dir>/shard0), read
// unchanged and folded by wal.Recovery.BuildTrace (no read-only commits).
//
//	gstm trace -dump wal/shard0
//	gstm trace -diff 'wal/shard0=wal/shard1'
func traceCmd(fs *flag.FlagSet, args []string) {
	var (
		dump      = fs.String("dump", "", "WAL shard directory to dump")
		diff      = fs.String("diff", "", "two glob patterns of WAL shard directories separated by '=': groupA=groupB")
		maxStates = fs.Int("n", 40, "states to print during -dump (0 = all)")
	)
	_ = fs.Parse(args)

	switch {
	case *dump != "":
		recs, ts := readLogs(*dump)
		for i, rec := range recs {
			fmt.Printf("%d segments, %d dropped bytes, snapshot wv %d\n", rec.Segments, rec.DroppedBytes, rec.SnapWV)
			trace.Dump(os.Stdout, ts[i], *maxStates)
		}
	case *diff != "":
		a, b, ok := strings.Cut(*diff, "=")
		if !ok {
			exitOn(fmt.Errorf("-diff wants groupA=groupB glob patterns, got %q", *diff))
		}
		_, groupA := readLogs(a)
		_, groupB := readLogs(b)
		fmt.Printf("A: %d logs (%s)\nB: %d logs (%s)\n", len(groupA), a, len(groupB), b)
		trace.Compare(groupA, groupB).Write(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "%s: need -dump <wal-dir> or -diff 'a*=b*'\n", prog)
		fs.Usage()
		os.Exit(2)
	}
}

// readLogs reads every WAL directory matching pattern and its Tseq (empty
// when no commit is logged above the snapshot), exiting on any failure.
func readLogs(pattern string) (recs []*wal.Recovery, ts []*trace.Trace) {
	dirs, err := filepath.Glob(pattern)
	exitOn(err)
	if len(dirs) == 0 {
		exitOn(fmt.Errorf("no WAL directories match %q", pattern))
	}
	for _, d := range dirs {
		rec, err := wal.Read(d)
		exitOn(err)
		t := rec.BuildTrace()
		if t == nil {
			t = &trace.Trace{}
		}
		recs, ts = append(recs, rec), append(ts, t)
	}
	return recs, ts
}
