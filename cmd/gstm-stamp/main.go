// Command gstm-stamp runs the paper's STAMP experiments end to end: it
// profiles each benchmark, builds and analyzes the Thread State Automaton,
// measures paired default and guided executions, and prints the paper's
// tables and figures. It is the equivalent of the artifact's exec.sh
// pipeline (mcmc_data → model → default/ND_only vs model/ND_mcmc runs).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"gstm"
	"gstm/internal/harness"
	"gstm/internal/stamp"
)

func main() {
	var (
		benchFlag  = flag.String("bench", "all", "benchmark to run: all or one of genome,intruder,kmeans,labyrinth,ssca2,vacation,yada")
		threads    = flag.String("threads", "8", "comma-separated worker thread counts (paper: 8,16)")
		trainRuns  = flag.Int("trainruns", 12, "profiling runs used to build the model (paper: 20)")
		runs       = flag.Int("runs", 20, "measured runs per configuration (paper: 20)")
		trainSize  = flag.String("trainsize", "medium", "training input size: small, medium or large")
		testSize   = flag.String("testsize", "small", "measured input size: small, medium or large")
		interleave = flag.Int("interleave", 6, "yield 1-in-N transactional operations to force interleaving (0 disables)")
		tfactor    = flag.Float64("tfactor", 2, "destination-set threshold divisor (the paper's Tfactor)")
		gateK      = flag.Int("k", 16, "gate re-check bound before forcing progress (the paper's k)")
		seed       = flag.Uint64("seed", 0xC0FFEE, "experiment seed")
		table      = flag.Int("table", 0, "print only this table (1, 3 or 4); 0 prints everything")
		csvOut     = flag.String("csv", "", "also write a machine-readable CSV of all results to this path")
		fig        = flag.Int("fig", 0, "print only this figure (4, 5, 6, 7, 9 or 10); 0 prints everything")
		procs      = flag.Int("gomaxprocs", 1, "GOMAXPROCS for the experiment (1 gives the least timing noise on one core)")
		watchdog   = flag.Bool("watchdog", false, "arm the guidance watchdog on the guided side; the RESILIENCE report section then records degraded-mode transitions")
		metrics    = flag.String("metrics-addr", "", "serve live telemetry on this address (e.g. :9100 or :0 for an ephemeral port): /metrics (Prometheus), /debug/vars (JSON), /debug/pprof")
	)
	flag.Parse()
	runtime.GOMAXPROCS(*procs)

	if *metrics != "" {
		srv, err := gstm.ServeTelemetry(*metrics)
		exitOn(err)
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics, /debug/vars, /debug/pprof on http://%s\n", srv.BoundAddr)
		defer srv.Close()
	}

	trainSz, err := parseSize(*trainSize)
	exitOn(err)
	testSz, err := parseSize(*testSize)
	exitOn(err)
	threadCounts, err := parseThreads(*threads)
	exitOn(err)

	var workloads []stamp.Workload
	if *benchFlag == "all" {
		workloads = stamp.All()
	} else {
		w, err := stamp.ByName(*benchFlag)
		exitOn(err)
		workloads = []stamp.Workload{w}
	}

	suite := harness.NewSuite()
	for _, th := range threadCounts {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "running %s at %d threads (%d train + 2x%d measured runs)...\n",
				w.Name(), th, *trainRuns, *runs)
			res, err := harness.RunBenchmark(w, harness.Config{
				Threads:     th,
				TrainRuns:   *trainRuns,
				Runs:        *runs,
				TrainSize:   trainSz,
				TestSize:    testSz,
				Interleave:  *interleave,
				Tfactor:     *tfactor,
				GateRetries: *gateK,
				Seed:        *seed,
				Watchdog:    *watchdog,
			})
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

func parseSize(s string) (stamp.Size, error) {
	switch s {
	case "small":
		return stamp.Small, nil
	case "medium":
		return stamp.Medium, nil
	case "large":
		return stamp.Large, nil
	default:
		return 0, fmt.Errorf("gstm-stamp: unknown size %q (want small, medium or large)", s)
	}
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("gstm-stamp: bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gstm-stamp:", err)
		os.Exit(1)
	}
}
