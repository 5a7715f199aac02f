// Package harness orchestrates the paper's experiments end to end: profile
// a benchmark under the instrumented STM, build and analyze the Thread
// State Automaton, then measure paired default and guided runs and compute
// every quantity the evaluation section reports — per-thread execution-time
// standard deviation, non-determinism (distinct thread transactional
// states), per-thread abort histograms and their tail metric, abort ratios
// and slowdown. It is the equivalent of the artifact's exec.sh pipeline
// (mcmc_data → model → default / ND_mcmc / ND_only runs).
package harness

import (
	"fmt"
	"time"

	"gstm"
	"gstm/internal/stamp"
	"gstm/internal/stats"
	"gstm/internal/telemetry"
	"gstm/internal/trace"
)

// Config parameterizes one benchmark experiment.
type Config struct {
	Threads     int
	TrainRuns   int        // profiling runs used to build the model (paper: 20)
	Runs        int        // measured runs per configuration (paper: 20)
	TrainSize   stamp.Size // paper: medium
	TestSize    stamp.Size // paper: small
	Interleave  int
	Tfactor     float64 // destination-set divisor (paper: 4)
	GateRetries int     // the paper's k
	Seed        uint64

	// Watchdog arms the guidance watchdog on the guided side; the result
	// then records whether it tripped (see Result.GuidedHealth and
	// Suite.WriteResilience).
	Watchdog bool
}

// Normalize fills defaults matching the paper's protocol.
func (c Config) Normalize() Config {
	if c.Threads <= 0 {
		c.Threads = 8
	}
	if c.TrainRuns <= 0 {
		c.TrainRuns = 20
	}
	if c.Runs <= 0 {
		c.Runs = 20
	}
	if c.Interleave == 0 {
		c.Interleave = 6
	}
	if c.Tfactor <= 0 {
		c.Tfactor = 4
	}
	if c.Seed == 0 {
		c.Seed = 0xC0FFEE
	}
	return c
}

// SideResult holds the measured quantities of one configuration (default or
// guided).
type SideResult struct {
	// ThreadTimes[t][r] is thread t's execution time in run r (seconds).
	ThreadTimes [][]float64

	// ThreadStd[t] is the sample standard deviation of thread t's times.
	ThreadStd []float64

	// ProgramTimes[r] is run r's parallel-phase wall-clock time (seconds).
	ProgramTimes []float64

	// AbortHist[t] is thread t's abort histogram merged over all runs.
	AbortHist []*stats.Histogram

	// NonDeterminism is the number of distinct thread transactional states
	// across all measured runs.
	NonDeterminism int

	Commits, Aborts uint64

	// Telemetry is the side's runtime-telemetry snapshot taken after its
	// measured runs: sampled commit/validation latency histograms and gate
	// telemetry by automaton state.
	Telemetry telemetry.Snapshot
}

// MeanProgramTime returns the mean wall-clock time of the configuration.
func (s *SideResult) MeanProgramTime() float64 { return stats.Mean(s.ProgramTimes) }

// AbortRatio returns aborts per commit.
func (s *SideResult) AbortRatio() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Commits)
}

// Result is the complete outcome of one benchmark experiment.
type Result struct {
	App     string
	Config  Config
	Model   *gstm.Model
	Report  gstm.Report
	Default SideResult
	Guided  SideResult

	// GuidedHealth is the guided system's resilience snapshot taken after
	// its measured runs: gate decision counts and, when Config.Watchdog
	// armed a watchdog, its state, trip count and window rates.
	GuidedHealth gstm.Health
}

// VarianceImprovement returns the per-thread percentage reduction in
// execution-time standard deviation (Figures 4 and 6).
func (r *Result) VarianceImprovement() []float64 {
	out := make([]float64, len(r.Default.ThreadStd))
	for t := range out {
		out[t] = stats.PercentImprovement(r.Default.ThreadStd[t], r.Guided.ThreadStd[t])
	}
	return out
}

// NonDeterminismReduction returns the percentage reduction in distinct
// states, guided vs default (Figure 9).
func (r *Result) NonDeterminismReduction() float64 {
	return stats.PercentImprovement(float64(r.Default.NonDeterminism), float64(r.Guided.NonDeterminism))
}

// Slowdown returns guided mean program time over default mean program time
// (Figure 10; 1.0 = no slowdown).
func (r *Result) Slowdown() float64 {
	return stats.Slowdown(r.Default.MeanProgramTime(), r.Guided.MeanProgramTime())
}

// TailImprovement returns the average percentage improvement of the abort
// tail metric across threads (Table IV).
func (r *Result) TailImprovement() float64 {
	return stats.TailImprovement(r.Default.AbortHist, r.Guided.AbortHist)
}

// Train is the pipeline's phases 1 and 2 (the artifact's mcmc_data mode):
// cfg.TrainRuns profiled runs of w on the training input, seeded
// cfg.Seed + run*7919 and each validated, then the model built from their
// traces. It returns the traces in run order beside the model.
func Train(w stamp.Workload, cfg Config) ([]*gstm.Trace, *gstm.Model, error) {
	cfg = cfg.Normalize()
	sys := gstm.NewSystem(gstm.Config{Threads: cfg.Threads, Interleave: cfg.Interleave})
	traces := make([]*gstm.Trace, 0, cfg.TrainRuns)
	for run := 0; run < cfg.TrainRuns; run++ {
		tr, _, _, err := measuredRun(sys, w, stamp.Params{
			Threads: cfg.Threads,
			Size:    cfg.TrainSize,
			Seed:    cfg.Seed + uint64(run)*7919,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: training run %d: %w", w.Name(), run, err)
		}
		traces = append(traces, tr)
	}
	return traces, gstm.BuildModel(cfg.Threads, traces), nil
}

// RunBenchmark executes the full pipeline for one STAMP workload.
func RunBenchmark(w stamp.Workload, cfg Config) (*Result, error) {
	cfg = cfg.Normalize()
	res := &Result{App: w.Name(), Config: cfg}

	// Phase 1+2: profile on the training input and build the model.
	var err error
	if _, res.Model, err = Train(w, cfg); err != nil {
		return nil, err
	}

	// Phase 3: analyze.
	res.Report = gstm.Analyze(res.Model)

	// Phase 4: measured runs. Both sides run with instrumentation on (the
	// paper's ND_only vs ND_mcmc), with paired input seeds.
	defSys := gstm.NewSystem(gstm.Config{Threads: cfg.Threads, Interleave: cfg.Interleave})
	d, err := measureSide(defSys, w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: default side: %w", w.Name(), err)
	}
	res.Default = *d

	guidedSys := gstm.NewSystem(gstm.Config{Threads: cfg.Threads, Interleave: cfg.Interleave})
	gopts := []gstm.GuidanceOption{gstm.WithTfactor(cfg.Tfactor), gstm.WithGateRetries(cfg.GateRetries)}
	if cfg.Watchdog {
		gopts = append(gopts, gstm.WithWatchdog())
	}
	guidedSys.ForceGuidance(res.Model, gopts...)
	g, err := measureSide(guidedSys, w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: guided side: %w", w.Name(), err)
	}
	res.Guided = *g
	res.GuidedHealth = guidedSys.Health()
	return res, nil
}

// measureSide performs cfg.Runs measured runs of w on sys.
func measureSide(sys *gstm.System, w stamp.Workload, cfg Config) (*SideResult, error) {
	side := &SideResult{
		ThreadTimes: make([][]float64, cfg.Threads),
		ThreadStd:   make([]float64, cfg.Threads),
		AbortHist:   make([]*stats.Histogram, cfg.Threads),
	}
	for t := 0; t < cfg.Threads; t++ {
		side.AbortHist[t] = stats.NewHistogram()
	}
	var traces []*trace.Trace
	sys.ResetStats()
	for run := 0; run < cfg.Runs; run++ {
		tr, durs, wall, err := measuredRun(sys, w, stamp.Params{
			Threads: cfg.Threads,
			Size:    cfg.TestSize,
			Seed:    cfg.Seed + 1_000_003 + uint64(run)*104729,
		})
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", run, err)
		}
		traces = append(traces, tr)
		for t := 0; t < cfg.Threads; t++ {
			side.ThreadTimes[t] = append(side.ThreadTimes[t], durs[t].Seconds())
		}
		side.ProgramTimes = append(side.ProgramTimes, wall.Seconds())
		for t, h := range tr.ThreadHistograms(cfg.Threads) {
			side.AbortHist[t].Merge(h)
		}
	}
	for t := 0; t < cfg.Threads; t++ {
		sd, err := stats.StdDev(side.ThreadTimes[t])
		if err != nil {
			return nil, fmt.Errorf("thread %d: %w", t, err)
		}
		side.ThreadStd[t] = sd
	}
	side.NonDeterminism = trace.DistinctStatesAcross(traces)
	side.Commits, side.Aborts = sys.Stats()
	side.Telemetry = sys.TelemetrySnapshot()
	return side, nil
}

// measuredRun executes one instance under profiling, returning its trace,
// per-thread times and the parallel phase's wall-clock time.
func measuredRun(sys *gstm.System, w stamp.Workload, p stamp.Params) (*trace.Trace, []time.Duration, time.Duration, error) {
	inst, err := w.NewInstance(p)
	if err != nil {
		return nil, nil, 0, err
	}
	sys.StartProfiling()
	begin := time.Now()
	durs, err := inst.Run(sys)
	wall := time.Since(begin)
	tr := sys.StopProfiling()
	if err != nil {
		return nil, nil, 0, err
	}
	if err := inst.Validate(sys); err != nil {
		return nil, nil, 0, err
	}
	return tr, durs, wall, nil
}
