package harness

import (
	"encoding/csv"
	"fmt"
	"strings"
	"testing"
	"time"

	"gstm"
	"gstm/internal/guide"
	"gstm/internal/stamp"
	"gstm/internal/telemetry"
)

// smallCfg keeps harness tests fast: few runs on small inputs.
func smallCfg(threads int) Config {
	return Config{
		Threads:    threads,
		TrainRuns:  3,
		Runs:       4,
		TrainSize:  stamp.Small,
		TestSize:   stamp.Small,
		Interleave: 6,
		Tfactor:    4,
		Seed:       42,
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.Threads != 8 || c.TrainRuns != 20 || c.Runs != 20 || c.Tfactor != 4 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	custom := Config{Threads: 4, TrainRuns: 2, Runs: 3, Tfactor: 6, Interleave: -1}.Normalize()
	if custom.Threads != 4 || custom.TrainRuns != 2 || custom.Runs != 3 || custom.Tfactor != 6 {
		t.Fatalf("explicit values clobbered: %+v", custom)
	}
	if custom.Interleave != -1 {
		t.Fatalf("explicit no-interleave clobbered: %+v", custom)
	}
}

func TestRunBenchmarkKMeansEndToEnd(t *testing.T) {
	w, err := stamp.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchmark(w, smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "kmeans" {
		t.Fatalf("App = %q", res.App)
	}
	if res.Model.NumStates() == 0 {
		t.Fatal("empty model")
	}
	if len(res.Default.ThreadStd) != 4 || len(res.Guided.ThreadStd) != 4 {
		t.Fatalf("thread std lengths: %d/%d", len(res.Default.ThreadStd), len(res.Guided.ThreadStd))
	}
	if res.Default.NonDeterminism == 0 {
		t.Fatal("default side saw no states")
	}
	if res.Default.Commits == 0 || res.Guided.Commits == 0 {
		t.Fatal("sides recorded no commits")
	}
	if len(res.Default.ProgramTimes) != 4 {
		t.Fatalf("program times = %d", len(res.Default.ProgramTimes))
	}
	if s := res.Slowdown(); s <= 0 {
		t.Fatalf("Slowdown = %v", s)
	}
	if vi := res.VarianceImprovement(); len(vi) != 4 {
		t.Fatalf("variance improvement per thread = %d entries", len(vi))
	}
}

func TestSuiteReportRendersAllSections(t *testing.T) {
	w, err := stamp.ByName("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchmark(w, smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	suite := NewSuite()
	suite.Add(res)
	out := suite.FormatAll()
	for _, want := range []string{
		"TABLE I", "TABLE III", "TABLE IV",
		"FIG (variance)", "FIG (abort tails)", "FIG 9", "FIG 10", "SUMMARY",
		"ssca2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if suite.Get("ssca2", 2) != res {
		t.Fatal("Get did not return stored result")
	}
	if suite.Get("nope", 2) != nil {
		t.Fatal("Get returned result for unknown app")
	}
}

func TestPairedSeedsGiveIdenticalInputs(t *testing.T) {
	// The default and guided sides must see the same per-run inputs: the
	// harness pairs seeds. Detect via deterministic commit counts of a
	// conflict-free workload (ssca2's commit count is input-determined).
	w, err := stamp.ByName("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchmark(w, smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Default.Commits != res.Guided.Commits {
		t.Fatalf("sides diverged: %d vs %d commits", res.Default.Commits, res.Guided.Commits)
	}
}

func TestMeasureSchedulerWithPolicies(t *testing.T) {
	w, err := stamp.ByName("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(2)
	cfg.Runs = 2
	for name, factory := range BuiltinPolicies() {
		side, err := MeasureScheduler(w, cfg, factory)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if side.Commits == 0 {
			t.Fatalf("%s: no commits", name)
		}
		if len(side.ProgramTimes) != cfg.Runs {
			t.Fatalf("%s: %d program times", name, len(side.ProgramTimes))
		}
	}
}

func TestComparePoliciesProducesAllRows(t *testing.T) {
	w, err := stamp.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(2)
	cfg.TrainRuns, cfg.Runs = 2, 2
	pc, err := ComparePolicies(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"default": true, "polite": true, "karma": true,
		"greedy": true, "roundrobin": true, "guided": true}
	for _, row := range pc.Rows {
		if !want[row.Policy] {
			t.Fatalf("unexpected policy row %q", row.Policy)
		}
		delete(want, row.Policy)
		if row.Side == nil || row.Side.Commits == 0 {
			t.Fatalf("policy %q has empty side", row.Policy)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing policy rows: %v", want)
	}
	var sb strings.Builder
	pc.Write(&sb)
	if !strings.Contains(sb.String(), "POLICY COMPARISON") {
		t.Fatal("report header missing")
	}
}

func TestWriteCSV(t *testing.T) {
	w, err := stamp.ByName("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchmark(w, smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	suite := NewSuite()
	suite.Add(res)
	var sb strings.Builder
	if err := suite.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, sb.String())
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want header + 1", len(rows))
	}
	if rows[1][0] != "ssca2" || rows[1][1] != "2" {
		t.Fatalf("data row = %v", rows[1])
	}
	if len(rows[0]) != len(rows[1]) {
		t.Fatal("header/data width mismatch")
	}
}

func TestSideResultAccessors(t *testing.T) {
	side := &SideResult{
		ProgramTimes: []float64{1, 2, 3},
		Commits:      10,
		Aborts:       5,
	}
	if got := side.MeanProgramTime(); got != 2 {
		t.Fatalf("MeanProgramTime = %v", got)
	}
	if got := side.AbortRatio(); got != 0.5 {
		t.Fatalf("AbortRatio = %v", got)
	}
	empty := &SideResult{}
	if empty.AbortRatio() != 0 {
		t.Fatal("zero-commit AbortRatio should be 0")
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := &Result{
		Default: SideResult{
			ThreadStd:      []float64{2, 4},
			ProgramTimes:   []float64{10},
			NonDeterminism: 100,
		},
		Guided: SideResult{
			ThreadStd:      []float64{1, 1},
			ProgramTimes:   []float64{12},
			NonDeterminism: 40,
		},
	}
	vi := r.VarianceImprovement()
	if vi[0] != 50 || vi[1] != 75 {
		t.Fatalf("variance improvement = %v", vi)
	}
	if got := r.NonDeterminismReduction(); got != 60 {
		t.Fatalf("nd reduction = %v", got)
	}
	if got := r.Slowdown(); got != 1.2 {
		t.Fatalf("slowdown = %v", got)
	}
}

func TestRunSynQuakeEndToEnd(t *testing.T) {
	res, err := RunSynQuake(SynQuakeConfig{
		Threads: 2, Players: 32, TrainFrames: 10, TestFrames: 15, TrainRuns: 1,
		MeasureRuns: 2, Interleave: 6, Tfactor: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.NumStates() == 0 {
		t.Fatal("empty model")
	}
	if len(res.Quests) != 2 {
		t.Fatalf("quests = %d, want 2", len(res.Quests))
	}
	names := map[string]bool{}
	for _, q := range res.Quests {
		names[q.Quest] = true
		if q.DefaultFrameStd <= 0 || q.GuidedFrameStd <= 0 {
			t.Fatalf("%s: zero frame stds", q.Quest)
		}
		if q.DefaultRateStd <= 0 || q.GuidedRateStd <= 0 {
			t.Fatalf("%s: zero rate stds", q.Quest)
		}
		if q.DefaultTotal <= 0 || q.GuidedTotal <= 0 {
			t.Fatalf("%s: zero totals", q.Quest)
		}
	}
	if !names["4quadrants"] || !names["4center_spread6"] {
		t.Fatalf("quests = %v", names)
	}
	var sb strings.Builder
	res.WriteTableV(&sb)
	res.WriteFigures(&sb)
	for _, want := range []string{"TABLE V", "FIG 11", "FIG 12", "frame-rate variance"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestWriteTelemetry renders the TELEMETRY section for two results: one
// whose guided side's watchdog tripped and one whose did not. Both sides
// of both print the commit quantile line from the sampled histogram; only
// the tripped result prints the trip line, with its LastTrip reason.
func TestWriteTelemetry(t *testing.T) {
	m := telemetry.NewDetached("report")
	for i := 0; i < 90; i++ {
		m.ObserveCommit(1000, 0, false)
	}
	for i := 0; i < 5; i++ {
		m.ObserveCommit(10000, 0, false)
		m.ObserveCommit(1000000, 0, false)
	}
	snap := m.Snapshot()
	q := func(p float64) time.Duration { return time.Duration(snap.CommitLatency.Quantile(p)) }
	if q(0.50) == q(0.95) || q(0.95) == q(0.99) {
		t.Fatalf("quantiles %v/%v/%v are not distinct", q(0.50), q(0.95), q(0.99))
	}
	trip := &guide.TripReason{Window: 512, GateSamples: 40, EscapeRate: 0.5}
	result := func(app string, h gstm.Health) *Result {
		return &Result{
			App: app, Config: Config{Threads: 2},
			Default: SideResult{Telemetry: snap}, Guided: SideResult{Telemetry: snap},
			GuidedHealth: h,
		}
	}
	suite := NewSuite()
	suite.Add(result("tripped", gstm.Health{
		WatchdogEnabled: true,
		Watchdog:        gstm.WatchdogSnapshot{State: guide.WatchdogTripped, Trips: 1, LastTrip: trip},
	}))
	suite.Add(result("armed", gstm.Health{WatchdogEnabled: true}))
	var b strings.Builder
	suite.WriteTelemetry(&b)
	out := b.String()

	commit := fmt.Sprintf("commit p50/p95/p99=%v/%v/%v (n=100)", q(0.50), q(0.95), q(0.99))
	for _, app := range []string{"tripped", "armed"} {
		for _, side := range []string{"default", "guided"} {
			if want := fmt.Sprintf("%-12s %2dt %-7s %s", app, 2, side, commit); !strings.Contains(out, want) {
				t.Errorf("missing %q in\n%s", want, out)
			}
		}
	}
	tripLine := fmt.Sprintf("%-12s %2dt %-7s   event watchdog-trip: %s\n", "tripped", 2, "guided", trip)
	if !strings.Contains(out, tripLine) {
		t.Errorf("missing trip line %q in\n%s", tripLine, out)
	}
	if n := strings.Count(out, "watchdog-trip"); n != 1 {
		t.Errorf("%d trip lines, want 1 (the tripped result's guided side) in\n%s", n, out)
	}
}
