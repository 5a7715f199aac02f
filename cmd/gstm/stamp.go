package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gstm/internal/harness"
	"gstm/internal/stamp"
)

// stampCmd runs the paper's STAMP experiments end to end: it profiles each
// benchmark, builds and analyzes the Thread State Automaton, measures
// paired default and guided executions, and prints the paper's tables and
// figures.
func stampCmd(fs *flag.FlagSet, args []string) {
	var (
		benchFlag = fs.String("bench", "all", "benchmark to run: all or one of genome,intruder,kmeans,labyrinth,ssca2,vacation,yada")
		threads   = fs.String("threads", "8", "comma-separated worker thread counts (paper: 8,16)")
		trainSize = fs.String("trainsize", "medium", "training input size: small, medium or large")
		testSize  = fs.String("testsize", "small", "measured input size: small, medium or large")
		table     = fs.Int("table", 0, "print only this table (1, 3 or 4); 0 prints everything")
		csvOut    = fs.String("csv", "", "also write a machine-readable CSV of all results to this path")
		fig       = fs.Int("fig", 0, "print only this figure (4, 5, 6, 7, 9 or 10); 0 prints everything")
		watchdog  = fs.Bool("watchdog", false, "arm the guidance watchdog on the guided side; the RESILIENCE report section then records degraded-mode transitions")
	)
	cfg := harness.Config{TrainRuns: 12, Runs: 20, Interleave: 6, Tfactor: 2, GateRetries: 16, Seed: 0xC0FFEE}
	parseExperiment(fs, args, &cfg, "threads")
	cfg.TrainSize, cfg.TestSize, cfg.Watchdog = parseSize(*trainSize), parseSize(*testSize), *watchdog

	var threadCounts []int
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			exitOn(fmt.Errorf("bad thread count %q", part))
		}
		threadCounts = append(threadCounts, n)
	}
	workloads := stamp.All()
	if *benchFlag != "all" {
		w, err := stamp.ByName(*benchFlag)
		exitOn(err)
		workloads = []stamp.Workload{w}
	}

	suite := harness.NewSuite()
	for _, th := range threadCounts {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "running %s at %d threads (%d train + 2x%d measured runs)...\n",
				w.Name(), th, cfg.TrainRuns, cfg.Runs)
			cfg.Threads = th
			res, err := harness.RunBenchmark(w, cfg)
			exitOn(err)
			suite.Add(res)
		}
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		exitOn(err)
		exitOn(suite.WriteCSV(f))
		exitOn(f.Close())
	}

	out := os.Stdout
	switch {
	case *table == 1:
		suite.WriteTableI(out)
	case *table == 3:
		suite.WriteTableIII(out)
	case *table == 4:
		suite.WriteTableIV(out)
	case *fig == 4 || *fig == 6:
		for _, th := range threadCounts {
			suite.WriteVarianceFigure(out, th)
		}
	case *fig == 5 || *fig == 7:
		for _, th := range threadCounts {
			suite.WriteAbortTailFigure(out, th)
		}
	case *fig == 9:
		suite.WriteNonDeterminismFigure(out)
	case *fig == 10:
		suite.WriteSlowdownFigure(out)
	default:
		fmt.Fprint(out, suite.FormatAll())
	}
}

// policies compares scheduling policies on a STAMP workload: unmanaged
// execution, the contention managers the paper's Related Work discusses
// (Polite, Karma, Greedy), a DeSTM-style deterministic round-robin, and
// model-driven guided execution. It quantifies the paper's argument that
// contention managers cannot reduce variance and non-determinism the way
// guidance does without sacrificing speculation.
func policies(fs *flag.FlagSet, args []string) {
	bench := fs.String("bench", "kmeans", "STAMP benchmark to compare policies on")
	cfg := harness.Config{Threads: 8, TrainRuns: 12, Runs: 20, TrainSize: stamp.Medium, TestSize: stamp.Small,
		Interleave: 6, Tfactor: 2, GateRetries: 16, Seed: 11}
	parseExperiment(fs, args, &cfg)
	w, err := stamp.ByName(*bench)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "comparing 6 policies on %s (%d threads, %d runs each)...\n", *bench, cfg.Threads, cfg.Runs)
	pc, err := harness.ComparePolicies(w, cfg)
	exitOn(err)
	pc.Write(os.Stdout)
}

// synquakeCmd runs the paper's Section VIII experiment: it trains the
// Thread State Automaton on the 4worst_case and 4moving quests of the
// SynQuake game server, then measures default versus guided execution on
// the 4quadrants and 4center_spread6 quests, printing Table V and the three
// panels of Figures 11 and 12.
func synquakeCmd(fs *flag.FlagSet, args []string) {
	var (
		players     = fs.Int("players", 256, "player count (paper: 1000; scaled default for one core)")
		trainFrames = fs.Int("trainframes", 100, "frames per training-quest run (paper: 1000)")
		testFrames  = fs.Int("testframes", 400, "frames per measured quest (paper: 10000)")
		table       = fs.Int("table", 0, "print only Table 5 when set to 5")
		fig         = fs.Int("fig", 0, "print only Figure 11 or 12 when set")
	)
	cfg := harness.Config{Threads: 8, TrainRuns: 3, Runs: 5, Interleave: 6, Tfactor: 2, GateRetries: 16, Seed: 0xBADA55}
	parseExperiment(fs, args, &cfg)

	fmt.Fprintf(os.Stderr, "training on 4worst_case+4moving (%d runs x %d frames), measuring 4quadrants and 4center_spread6 (%d frames)...\n",
		cfg.TrainRuns, *trainFrames, *testFrames)
	res, err := harness.RunSynQuake(harness.SynQuakeConfig{
		Threads:     cfg.Threads,
		Players:     *players,
		TrainFrames: *trainFrames,
		TestFrames:  *testFrames,
		TrainRuns:   cfg.TrainRuns,
		MeasureRuns: cfg.Runs,
		Interleave:  cfg.Interleave,
		Tfactor:     cfg.Tfactor,
		GateRetries: cfg.GateRetries,
		Seed:        cfg.Seed,
	})
	exitOn(err)

	switch {
	case *table == 5:
		res.WriteTableV(os.Stdout)
	case *fig == 11 || *fig == 12:
		want := "4quadrants"
		if *fig == 12 {
			want = "4center_spread6"
		}
		for _, q := range res.Quests {
			if q.Quest == want {
				one := *res
				one.Quests = []harness.SynQuakeQuestResult{q}
				one.WriteFigures(os.Stdout)
			}
		}
	default:
		res.WriteTableV(os.Stdout)
		res.WriteFigures(os.Stdout)
	}
}
