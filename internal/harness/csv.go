package harness

import (
	"encoding/csv"
	"fmt"
	"io"

	"gstm/internal/stats"
)

// WriteCSV emits one row per (application, threads) with every headline
// quantity — the machine-readable counterpart of the tables, standing in
// for the artifact's var_Percentagediff.py / avg_Percentagediff.py
// post-processing scripts.
func (s *Suite) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"app", "threads", "guidance_metric_pct", "guidable", "model_states",
		"default_nd", "guided_nd", "nd_reduction_pct",
		"tail_improvement_pct",
		"mean_variance_improvement_pct",
		"default_abort_ratio", "guided_abort_ratio",
		"default_mean_time_s", "guided_mean_time_s", "slowdown_x",
		"default_commit_p50_ns", "default_commit_p95_ns", "default_commit_p99_ns",
		"guided_commit_p50_ns", "guided_commit_p95_ns", "guided_commit_p99_ns",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, th := range s.threadCounts() {
		for _, app := range s.apps() {
			r := s.Get(app, th)
			if r == nil {
				continue
			}
			vi := r.VarianceImprovement()
			row := []string{
				app,
				fmt.Sprintf("%d", th),
				fmt.Sprintf("%.2f", r.Report.Metric),
				fmt.Sprintf("%v", r.Report.Guidable),
				fmt.Sprintf("%d", r.Model.NumStates()),
				fmt.Sprintf("%d", r.Default.NonDeterminism),
				fmt.Sprintf("%d", r.Guided.NonDeterminism),
				fmt.Sprintf("%.2f", r.NonDeterminismReduction()),
				fmt.Sprintf("%.2f", r.TailImprovement()),
				fmt.Sprintf("%.2f", stats.Mean(vi)),
				fmt.Sprintf("%.4f", r.Default.AbortRatio()),
				fmt.Sprintf("%.4f", r.Guided.AbortRatio()),
				fmt.Sprintf("%.6f", r.Default.MeanProgramTime()),
				fmt.Sprintf("%.6f", r.Guided.MeanProgramTime()),
				fmt.Sprintf("%.3f", r.Slowdown()),
				fmt.Sprintf("%d", r.Default.Telemetry.CommitLatency.Quantile(0.50)),
				fmt.Sprintf("%d", r.Default.Telemetry.CommitLatency.Quantile(0.95)),
				fmt.Sprintf("%d", r.Default.Telemetry.CommitLatency.Quantile(0.99)),
				fmt.Sprintf("%d", r.Guided.Telemetry.CommitLatency.Quantile(0.50)),
				fmt.Sprintf("%d", r.Guided.Telemetry.CommitLatency.Quantile(0.95)),
				fmt.Sprintf("%d", r.Guided.Telemetry.CommitLatency.Quantile(0.99)),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
