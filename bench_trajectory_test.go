package gstm_test

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// trajectoryRow is one row of BENCH_trajectory.json, as
// results/trajectory.sh writes it: one commit against the anchor on one
// workload.
type trajectoryRow struct {
	Commit     string                      `json:"commit"`
	Base       string                      `json:"base"`
	Anchor     string                      `json:"anchor"`
	Workload   string                      `json:"workload"`
	Pairs      int                         `json:"pairs"`
	Seconds    int                         `json:"seconds"`
	Date       string                      `json:"date"`
	Correct    bool                        `json:"correct"`
	Failed     int64                       `json:"failed"`
	Metrics    map[string]trajectoryMetric `json:"metrics"`
	Unresolved []string                    `json:"unresolved"`
	Host       struct {
		NProc     int     `json:"nproc"`
		CPU       string  `json:"cpu"`
		StealFrac float64 `json:"steal_frac"`
	} `json:"host"`
}

type trajectoryMetric struct {
	Ratio        float64 `json:"ratio"`
	IQR          float64 `json:"iqr"`
	AnchorSpread float64 `json:"anchor_spread"`
	Bound        float64 `json:"bound"`
}

// TestTrajectorySchema checks BENCH_trajectory.json against the schema
// results/trajectory.sh writes and against BENCHMARK.json: every row is a
// ratio to the script's one fixed anchor, names a benchmark workload,
// carries every end-to-end metric with that metric's bound, and lists as
// unresolved exactly the metrics whose anchor runs spread wider than their
// bound. Working-tree rows may only be the latest change's, awaiting the
// relabel the script's next run gives them: they all share one base. CI's
// bench-smoke runs it.
func TestTrajectorySchema(t *testing.T) {
	raw, err := os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []trajectoryRow
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rows); err != nil {
		t.Fatalf("BENCH_trajectory.json: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("BENCH_trajectory.json has no rows")
	}

	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	raw, err = os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bench.Workloads {
		workloads = append(workloads, w.Name)
	}
	script, err := os.ReadFile("results/trajectory.sh")
	if err != nil {
		t.Fatal(err)
	}
	def := regexp.MustCompile(`(?m)^anchor=([0-9a-f]{7})$`).FindSubmatch(script)
	if def == nil {
		t.Fatal("results/trajectory.sh sets no anchor=<short hash>")
	}
	anchor := string(def[1])

	hash := regexp.MustCompile(`^[0-9a-f]{7}$`)
	date := regexp.MustCompile(`^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ$`)
	seen := map[[4]string]bool{}
	pending := ""
	for i, r := range rows {
		key := [4]string{r.Commit, r.Base, r.Anchor, r.Workload}
		switch {
		case seen[key]:
			t.Errorf("row %d repeats %v", i, key)
		case r.Commit != "worktree" && !hash.MatchString(r.Commit):
			t.Errorf("row %d: commit %q is neither a short hash nor worktree", i, r.Commit)
		case !hash.MatchString(r.Base):
			t.Errorf("row %d: base %q is not a short hash", i, r.Base)
		case r.Anchor != anchor:
			t.Errorf("row %d: anchor %q, results/trajectory.sh's is %q", i, r.Anchor, anchor)
		case r.Commit == "worktree" && pending != "" && r.Base != pending:
			t.Errorf("row %d: worktree rows on two bases, %q and %q", i, pending, r.Base)
		case r.Commit != "worktree" && r.Base != r.Commit:
			t.Errorf("row %d: a commit row's base %q differs from its commit %q", i, r.Base, r.Commit)
		case !slices.Contains(workloads, r.Workload):
			t.Errorf("row %d: workload %q is not in BENCHMARK.json", i, r.Workload)
		case r.Pairs < 1 || r.Seconds < 1 || !date.MatchString(r.Date):
			t.Errorf("row %d: pairs %d, seconds %d, date %q", i, r.Pairs, r.Seconds, r.Date)
		case r.Failed < 0:
			t.Errorf("row %d: failed %d", i, r.Failed)
		case r.Host.NProc < 1 || r.Host.CPU == "" || r.Host.StealFrac < 0 || r.Host.StealFrac > 1:
			t.Errorf("row %d: host %+v", i, r.Host)
		}
		seen[key] = true
		if r.Commit == "worktree" {
			pending = r.Base
		}
		if len(r.Metrics) != len(bench.EndToEnd) {
			t.Errorf("row %d has %d metrics, BENCHMARK.json %d", i, len(r.Metrics), len(bench.EndToEnd))
		}
		var unresolved []string
		for _, e := range bench.EndToEnd {
			m, ok := r.Metrics[e.Name]
			switch {
			case !ok:
				t.Errorf("row %d lacks %s", i, e.Name)
				continue
			case m.Bound != e.Bound:
				t.Errorf("row %d: %s bound %v, BENCHMARK.json %v", i, e.Name, m.Bound, e.Bound)
			case m.Ratio <= 0 || m.IQR < 0 || m.AnchorSpread < 0:
				t.Errorf("row %d: %s %+v", i, e.Name, m)
			}
			if m.AnchorSpread > m.Bound {
				unresolved = append(unresolved, e.Name)
			}
		}
		if !slices.Equal(unresolved, r.Unresolved) {
			t.Errorf("row %d lists %v unresolved, its anchor spreads say %v", i, r.Unresolved, unresolved)
		}
	}
}
