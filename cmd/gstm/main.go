// Command gstm runs the paper's pipeline and the serving store from one
// binary — the equivalent of the artifact's exec.sh (mcmc_data → model →
// default/ND_only vs model/ND_mcmc runs) plus the TCP server and its load
// generator.
//
//	gstm serve     serve the transactional key-value store over TCP
//	gstm load      drive one load run against a server, or a ledger drill
//	gstm stamp     the STAMP experiments: the paper's tables and figures
//	gstm policies  compare scheduling policies on one STAMP workload
//	gstm synquake  the Section VIII SynQuake experiment
//	gstm model     profile a STAMP benchmark into a model, or inspect one
//	gstm trace     dump or diff the transaction sequences in WAL directories
//
// Every subcommand lists its flags with -h.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"gstm/internal/harness"
	"gstm/internal/stamp"
	"gstm/internal/telemetry"
)

var commands = []struct {
	name, what string
	run        func(fs *flag.FlagSet, args []string)
}{
	{"serve", "serve the transactional key-value store over TCP", serve},
	{"load", "drive one load run against a server, or a ledger drill", load},
	{"stamp", "the STAMP experiments: the paper's tables and figures", stampCmd},
	{"policies", "compare scheduling policies on one STAMP workload", policies},
	{"synquake", "the Section VIII SynQuake experiment", synquakeCmd},
	{"model", "profile a STAMP benchmark into a model, or inspect one", modelCmd},
	{"trace", "dump or diff the transaction sequences in WAL directories", traceCmd},
}

// prog prefixes every diagnostic: "gstm <subcommand>".
var prog = "gstm"

func main() {
	if len(os.Args) > 1 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				prog = "gstm " + c.name
				c.run(flag.NewFlagSet(prog, flag.ExitOnError), os.Args[2:])
				return
			}
		}
	}
	fmt.Fprintln(os.Stderr, "usage: gstm <subcommand> [flags]   (gstm <subcommand> -h lists the flags)")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.what)
	}
	os.Exit(2)
}

// exitOn ends the process on a non-nil err.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(1)
	}
}

// parseExperiment is the flag binder of stamp, policies, synquake and
// model. It registers the experiment flags they share on fs, bound into
// cfg, whose values on entry are the subcommand's defaults; omit names the
// ones the subcommand does not take. It then parses args, applies
// -gomaxprocs, maps -interleave 0 to "no yields", and starts the
// -metrics-addr endpoint.
func parseExperiment(fs *flag.FlagSet, args []string, cfg *harness.Config, omit ...string) {
	procs, metrics := 1, ""
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.IntVar(&cfg.Threads, "threads", cfg.Threads, "worker thread count (paper: 8 or 16)")
	all.IntVar(&cfg.TrainRuns, "trainruns", cfg.TrainRuns, "profiling runs used to build the model (paper: 20)")
	all.IntVar(&cfg.Runs, "runs", cfg.Runs, "measured runs per side and configuration (paper: 20)")
	all.IntVar(&cfg.Interleave, "interleave", cfg.Interleave, "yield 1-in-N transactional operations to force interleaving (0 disables)")
	all.Float64Var(&cfg.Tfactor, "tfactor", cfg.Tfactor, "destination-set threshold divisor (the paper's Tfactor)")
	all.IntVar(&cfg.GateRetries, "k", cfg.GateRetries, "gate re-check bound before forcing progress (the paper's k)")
	all.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "experiment seed")
	all.IntVar(&procs, "gomaxprocs", procs, "GOMAXPROCS for the experiment (1 gives the least timing noise on one core)")
	all.StringVar(&metrics, "metrics-addr", metrics, "serve live telemetry on this address (e.g. :9100 or :0): /metrics (Prometheus), /debug/vars (JSON), /debug/pprof")
	all.VisitAll(func(f *flag.Flag) {
		if !slices.Contains(omit, f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	_ = fs.Parse(args)
	runtime.GOMAXPROCS(procs)
	if cfg.Interleave == 0 {
		cfg.Interleave = -1 // Config.Normalize would read 0 as "default"
	}
	startTelemetry(metrics)
}

// startTelemetry serves the process-wide telemetry endpoint, plus mounts,
// on addr until the process exits or the caller shuts it down. It returns
// nil when addr is empty.
func startTelemetry(addr string, mounts ...telemetry.Mount) *telemetry.Server {
	if addr == "" {
		return nil
	}
	srv, err := telemetry.ServeAddr(addr, mounts...)
	exitOn(err)
	paths := []string{"/metrics", "/debug/vars", "/debug/pprof"}
	for _, m := range mounts {
		paths = append(paths, m.Pattern)
	}
	fmt.Fprintf(os.Stderr, "telemetry: serving %s on http://%s\n", strings.Join(paths, ", "), srv.BoundAddr)
	return srv
}

// parseSize maps the artifact's size names to stamp sizes.
func parseSize(s string) stamp.Size {
	for _, sz := range []stamp.Size{stamp.Small, stamp.Medium, stamp.Large} {
		if s == sz.String() {
			return sz
		}
	}
	exitOn(fmt.Errorf("unknown size %q (want small, medium or large)", s))
	return 0
}
