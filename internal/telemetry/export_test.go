package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"gstm/internal/obs"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sampleSnapshot() Snapshot {
	m := NewDetached("test")
	for i := 0; i < 20; i++ {
		m.TxStart(uint64(i))
		m.TxCommit(uint64(i))
	}
	m.TxAbort(0, obs.CauseReadValidation)
	m.TxBudgetExceeded(0)
	m.ObserveCommit(5000, 1000, true)
	m.ObserveCommit(50000, 2000, true)
	m.SetGate(newFakeGate())
	return m.Snapshot()
}

// fakeGate stands in for the guidance controller (whose own tests drive
// the real tallies): one pass and one 3 µs hold in state "s0/w2", one
// escape after 8 µs in a state whose label needs quoting, and a trip.
type fakeGate struct {
	passed uint64
	hold   obs.Hist
	resets int
}

func newFakeGate() *fakeGate {
	g := &fakeGate{passed: 1}
	g.hold.Observe(3000)
	g.hold.Observe(8000)
	return g
}

func (g *fakeGate) FillGate(s *Snapshot) {
	s.GatePassed, s.GateHeld, s.GateEscaped, s.WatchdogTrips = g.passed, 1, 1, 1
	s.GateHoldTime = g.hold.Snapshot()
	s.GateStates = append(s.GateStates,
		GateStateSnapshot{State: `s1"quoted\`, Visits: 1, Escapes: 1},
		GateStateSnapshot{State: "s0/w2", Visits: 2, Holds: 1})
}

func (g *fakeGate) ResetGate() { g.resets++ }

func TestWritePrometheusFamilies(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"gstm_tx_starts_total 21", // derived: 20 commits + 1 abort
		"gstm_tx_commits_total 20",
		"gstm_tx_aborts_total 1",
		"gstm_tx_retry_budget_exceeded_total 1",
		"gstm_tx_context_canceled_total 0",
		"gstm_watchdog_trips_total 1",
		`gstm_gate_decisions_total{outcome="passed"} 1`,
		`gstm_gate_decisions_total{outcome="held"} 1`,
		`gstm_gate_decisions_total{outcome="escaped"} 1`,
		"gstm_commit_latency_seconds_count 2",
		"gstm_validation_latency_seconds_count 2",
		"gstm_gate_hold_seconds_count 2",
		`gstm_gate_state_visits_total{state="s0/w2"} 2`,
		`gstm_gate_state_holds_total{state="s0/w2"} 1`,
		`gstm_gate_state_escapes_total{state="s1\"quoted\\"} 1`,
		`_bucket{le="+Inf"}`,
		"# TYPE gstm_commit_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
}

func TestWritePrometheusComponentSeries(t *testing.T) {
	s := sampleSnapshot()
	s.Components = []Snapshot{
		{Label: "shard0", Commits: 7, Aborts: 2, GatePassed: 5, GateHeld: 1, GateEscaped: 0},
		{Label: "shard1", Commits: 9, Aborts: 0, GatePassed: 8, GateHeld: 0, GateEscaped: 1},
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`gstm_component_tx_commits_total{component="shard0"} 7`,
		`gstm_component_tx_commits_total{component="shard1"} 9`,
		`gstm_component_tx_aborts_total{component="shard0"} 2`,
		`gstm_component_gate_decisions_total{component="shard0",outcome="held"} 1`,
		`gstm_component_gate_decisions_total{component="shard1",outcome="escaped"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
}

// TestPrometheusHistogramCumulative checks the textbook histogram
// invariants: bucket counts are cumulative and non-decreasing, and the
// +Inf bucket equals _count.
func TestPrometheusHistogramCumulative(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	var prev uint64
	var infCount, totalCount uint64
	sawBucket := false
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "gstm_commit_latency_seconds_bucket{le=\"+Inf\"}"):
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &infCount)
		case strings.HasPrefix(line, "gstm_commit_latency_seconds_bucket"):
			sawBucket = true
			var n uint64
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n)
			if n < prev {
				t.Fatalf("bucket counts not cumulative: %d after %d in %q", n, prev, line)
			}
			prev = n
		case strings.HasPrefix(line, "gstm_commit_latency_seconds_count"):
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &totalCount)
		}
	}
	if !sawBucket {
		t.Fatal("no finite buckets emitted")
	}
	if infCount != totalCount || totalCount != 2 {
		t.Fatalf("+Inf bucket %d != count %d (want 2)", infCount, totalCount)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	rec := httptest.NewRecorder()
	Handler(func() Snapshot { return s }).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	var vars struct {
		Gstm Snapshot `json:"gstm"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("round-trip unmarshal: %v\n%s", err, rec.Body.String())
	}
	back := vars.Gstm
	if back.Commits != s.Commits || back.Aborts != s.Aborts {
		t.Fatalf("round-trip lost counters: %+v", back)
	}
	if !reflect.DeepEqual(back.CommitLatency, s.CommitLatency) {
		t.Fatalf("round-trip lost histogram: %+v", back.CommitLatency)
	}
	if len(back.GateStates) != len(s.GateStates) {
		t.Fatalf("round-trip lost gate states: %+v", back.GateStates)
	}
}

func TestSnapshotMergeCounters(t *testing.T) {
	a, b := sampleSnapshot(), sampleSnapshot()
	a.Merge(b)
	if a.Commits != 40 || a.Aborts != 2 {
		t.Fatalf("merged commits/aborts = %d/%d", a.Commits, a.Aborts)
	}
	if a.CommitLatency.Count != 4 {
		t.Fatalf("merged commit-latency count = %d", a.CommitLatency.Count)
	}
	if len(a.GateStates) != 2 || a.GateStates[0].Visits != 4 {
		t.Fatalf("merged gate states = %+v", a.GateStates)
	}
	// Queue depths add, and snapshots without a log carry none.
	if a.WALQueueDepth != nil {
		t.Fatalf("merged snapshots without a log carry queue depth %d", *a.WALQueueDepth)
	}
	logged := NewDetached("log")
	logged.SetWALQueueDepth(func() uint64 { return 3 })
	a.Merge(logged.Snapshot())
	a.Merge(logged.Snapshot())
	if a.WALQueueDepth == nil || *a.WALQueueDepth != 6 {
		t.Fatalf("merged queue depth %v, want 6", a.WALQueueDepth)
	}
}

func TestFormatSeconds(t *testing.T) {
	for _, tc := range []struct {
		v float64
	}{{0}, {1e-9}, {0.000005}, {1.5}, {60}} {
		s := formatSeconds(tc.v)
		got, err := strconv.ParseFloat(s, 64)
		if err != nil || got != tc.v {
			t.Fatalf("formatSeconds(%v) = %q (parse: %v %v)", tc.v, s, got, err)
		}
	}
}

type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.n -= len(p)
	if f.n < 0 {
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

func TestWritePrometheusPropagatesWriteError(t *testing.T) {
	if err := WritePrometheus(&failAfter{n: 64}, sampleSnapshot()); err == nil {
		t.Fatal("want write error, got nil")
	}
}
