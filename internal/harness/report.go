package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gstm/internal/obs"
	"gstm/internal/telemetry"
)

// Suite is a set of benchmark results keyed by (app, threads), holding
// everything needed to print the paper's tables and figures.
type Suite struct {
	results map[suiteKey]*Result
}

type suiteKey struct {
	app     string
	threads int
}

// NewSuite returns an empty result suite.
func NewSuite() *Suite { return &Suite{results: make(map[suiteKey]*Result)} }

// Add stores r in the suite.
func (s *Suite) Add(r *Result) {
	s.results[suiteKey{app: r.App, threads: r.Config.Threads}] = r
}

// Get returns the result for (app, threads), or nil.
func (s *Suite) Get(app string, threads int) *Result {
	return s.results[suiteKey{app: app, threads: threads}]
}

// apps returns the distinct application names in table order.
func (s *Suite) apps() []string {
	seen := map[string]bool{}
	var out []string
	for k := range s.results {
		if !seen[k.app] {
			seen[k.app] = true
			out = append(out, k.app)
		}
	}
	sort.Strings(out)
	return out
}

// threadCounts returns the distinct thread counts ascending.
func (s *Suite) threadCounts() []int {
	seen := map[int]bool{}
	var out []int
	for k := range s.results {
		if !seen[k.threads] {
			seen[k.threads] = true
			out = append(out, k.threads)
		}
	}
	sort.Ints(out)
	return out
}

func (s *Suite) perThreadsCell(app string, threads int, f func(*Result) string) string {
	r := s.Get(app, threads)
	if r == nil {
		return "-"
	}
	return f(r)
}

// WriteTableI prints the model analyzer guidance metric (lower is better).
func (s *Suite) WriteTableI(w io.Writer) {
	fmt.Fprintln(w, "TABLE I: MODEL ANALYZER GUIDANCE METRIC PERCENTAGE (LOWER IS BETTER)")
	s.writePerApp(w, func(r *Result) string { return fmt.Sprintf("%.0f", r.Report.Metric) })
}

// WriteTableIII prints the number of states in each model.
func (s *Suite) WriteTableIII(w io.Writer) {
	fmt.Fprintln(w, "TABLE III: THE NUMBER OF STATES IN THE MODEL OF APPLICATION")
	s.writePerApp(w, func(r *Result) string { return fmt.Sprintf("%d", r.Model.NumStates()) })
}

// WriteTableIV prints the average percentage improvement in the abort tail
// distribution.
func (s *Suite) WriteTableIV(w io.Writer) {
	fmt.Fprintln(w, "TABLE IV: AVERAGE PERCENTAGE IMPROVEMENT IN THE TAIL DISTRIBUTION OF ABORTS")
	s.writePerApp(w, func(r *Result) string { return fmt.Sprintf("%.0f%%", r.TailImprovement()) })
}

// writePerApp renders one row per app with one column per thread count.
func (s *Suite) writePerApp(w io.Writer, cell func(*Result) string) {
	threads := s.threadCounts()
	fmt.Fprintf(w, "%-12s", "Application")
	for _, th := range threads {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("%d threads", th))
	}
	fmt.Fprintln(w)
	for _, app := range s.apps() {
		fmt.Fprintf(w, "%-12s", app)
		for _, th := range threads {
			fmt.Fprintf(w, " %12s", s.perThreadsCell(app, th, cell))
		}
		fmt.Fprintln(w)
	}
}

// WriteVarianceFigure prints per-thread percentage execution-time variance
// improvement for the given thread count (Figure 4 for 8 threads, Figure 6
// for 16).
func (s *Suite) WriteVarianceFigure(w io.Writer, threads int) {
	fmt.Fprintf(w, "FIG (variance): %% EXECUTION TIME VARIANCE IMPROVEMENT PER THREAD, %d THREADS\n", threads)
	for _, app := range s.apps() {
		r := s.Get(app, threads)
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "%-12s", app)
		for _, v := range r.VarianceImprovement() {
			fmt.Fprintf(w, " %7.1f", v)
		}
		fmt.Fprintln(w)
	}
}

// WriteAbortTailFigure prints each thread's abort histogram for default
// (dotted line in the paper) and guided (solid line) executions (Figures 5
// and 7), in the artifact's "aborts:frequency" format.
func (s *Suite) WriteAbortTailFigure(w io.Writer, threads int) {
	fmt.Fprintf(w, "FIG (abort tails): ABORT DISTRIBUTION PER THREAD, %d THREADS (default | guided)\n", threads)
	for _, app := range s.apps() {
		r := s.Get(app, threads)
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "%s:\n", app)
		for t := 0; t < threads; t++ {
			fmt.Fprintf(w, "  thread %2d: %-40s | %s\n",
				t, r.Default.AbortHist[t].String(), r.Guided.AbortHist[t].String())
		}
	}
}

// WriteNonDeterminismFigure prints the percentage reduction in
// non-determinism, guided vs default (Figure 9).
func (s *Suite) WriteNonDeterminismFigure(w io.Writer) {
	fmt.Fprintln(w, "FIG 9: REDUCTION IN NON-DETERMINISM, GUIDED VS DEFAULT")
	s.writePerApp(w, func(r *Result) string {
		return fmt.Sprintf("%.1f%% (%d→%d)", r.NonDeterminismReduction(),
			r.Default.NonDeterminism, r.Guided.NonDeterminism)
	})
}

// WriteSlowdownFigure prints the slowdown of guided vs default execution
// (Figure 10; values < 1 are speedups).
func (s *Suite) WriteSlowdownFigure(w io.Writer) {
	fmt.Fprintln(w, "FIG 10: SLOWDOWN OF GUIDED VS DEFAULT EXECUTION (X)")
	s.writePerApp(w, func(r *Result) string { return fmt.Sprintf("%.2fx", r.Slowdown()) })
}

// WriteResilience prints each guided run's resilience outcome: gate
// decision counts and — when a watchdog was armed — its final state, the
// degraded-mode transition (a trip to pass-through) and the window rates
// it last sampled.
func (s *Suite) WriteResilience(w io.Writer) {
	fmt.Fprintln(w, "RESILIENCE (guided side): watchdog state, degraded-mode transitions, gate/abort rates")
	for _, th := range s.threadCounts() {
		for _, app := range s.apps() {
			r := s.Get(app, th)
			if r == nil {
				continue
			}
			h := r.GuidedHealth
			fmt.Fprintf(w, "%-12s %2dt gate(pass/held/esc)=%d/%d/%d", app, th,
				h.GatePassed, h.GateHeld, h.GateEscaped)
			if !h.WatchdogEnabled {
				fmt.Fprintln(w, " watchdog=off")
				continue
			}
			fmt.Fprintf(w, " watchdog=%s trips=%d esc=%.2f hold=%.2f abort=%.2f\n",
				h.Watchdog.State, h.Watchdog.Trips,
				h.Watchdog.EscapeRate, h.Watchdog.HoldRate, h.Watchdog.AbortRate)
		}
	}
}

// WriteTelemetry prints each side's runtime telemetry: sampled commit and
// validation latency quantiles, gate hold-time quantiles, the hottest
// automaton states at the gate, and the guided side's watchdog trip, if any.
func (s *Suite) WriteTelemetry(w io.Writer) {
	fmt.Fprintln(w, "TELEMETRY (per app/threads): sampled latency quantiles, hot gate states, diagnostic events")
	q := func(h obs.HistCounts, p float64) time.Duration { return time.Duration(h.Quantile(p)) }
	for _, th := range s.threadCounts() {
		for _, app := range s.apps() {
			r := s.Get(app, th)
			if r == nil {
				continue
			}
			for _, side := range []struct {
				name   string
				snap   telemetry.Snapshot
				guided bool
			}{{"default", r.Default.Telemetry, false}, {"guided", r.Guided.Telemetry, true}} {
				t := side.snap
				fmt.Fprintf(w, "%-12s %2dt %-7s commit p50/p95/p99=%v/%v/%v (n=%d) validation p99=%v (n=%d)\n",
					app, th, side.name,
					q(t.CommitLatency, 0.50), q(t.CommitLatency, 0.95), q(t.CommitLatency, 0.99), t.CommitLatency.Count,
					q(t.ValidationLatency, 0.99), t.ValidationLatency.Count)
				if t.GateHoldTime.Count > 0 {
					fmt.Fprintf(w, "%-12s %2dt %-7s gate hold p50/p99=%v/%v (n=%d)\n",
						app, th, side.name, q(t.GateHoldTime, 0.50), q(t.GateHoldTime, 0.99), t.GateHoldTime.Count)
				}
				for i, g := range t.GateStates {
					if i >= 3 { // hottest three states suffice for the report
						fmt.Fprintf(w, "%-12s %2dt %-7s   ... %d more states\n", app, th, side.name, len(t.GateStates)-i)
						break
					}
					fmt.Fprintf(w, "%-12s %2dt %-7s   state %-24s visits=%d holds=%d escapes=%d\n",
						app, th, side.name, g.State, g.Visits, g.Holds, g.Escapes)
				}
				if trip := r.GuidedHealth.Watchdog.LastTrip; side.guided && trip != nil {
					fmt.Fprintf(w, "%-12s %2dt %-7s   event watchdog-trip: %s\n", app, th, side.name, trip)
				}
			}
		}
	}
}

// WriteSummary prints one compact line per result: the headline numbers of
// the whole experiment.
func (s *Suite) WriteSummary(w io.Writer) {
	fmt.Fprintln(w, "SUMMARY (per app/threads): metric, states, mean variance improvement, ND reduction, tail improvement, slowdown")
	for _, th := range s.threadCounts() {
		for _, app := range s.apps() {
			r := s.Get(app, th)
			if r == nil {
				continue
			}
			vi := r.VarianceImprovement()
			sum := 0.0
			for _, v := range vi {
				sum += v
			}
			fmt.Fprintf(w, "%-12s %2dt metric=%3.0f%% states=%6d var=%+6.1f%% nd=%+6.1f%% tail=%+6.1f%% slow=%.2fx guidable=%v\n",
				app, th, r.Report.Metric, r.Model.NumStates(),
				sum/float64(len(vi)), r.NonDeterminismReduction(),
				r.TailImprovement(), r.Slowdown(), r.Report.Guidable)
		}
	}
}

// FormatAll renders every table and figure into one string (used by the
// CLI's -all mode and by EXPERIMENTS.md generation).
func (s *Suite) FormatAll() string {
	var b strings.Builder
	s.WriteTableI(&b)
	b.WriteByte('\n')
	s.WriteTableIII(&b)
	b.WriteByte('\n')
	s.WriteTableIV(&b)
	b.WriteByte('\n')
	for _, th := range s.threadCounts() {
		s.WriteVarianceFigure(&b, th)
		b.WriteByte('\n')
		s.WriteAbortTailFigure(&b, th)
		b.WriteByte('\n')
	}
	s.WriteNonDeterminismFigure(&b)
	b.WriteByte('\n')
	s.WriteSlowdownFigure(&b)
	b.WriteByte('\n')
	s.WriteResilience(&b)
	b.WriteByte('\n')
	s.WriteTelemetry(&b)
	b.WriteByte('\n')
	s.WriteSummary(&b)
	return b.String()
}
