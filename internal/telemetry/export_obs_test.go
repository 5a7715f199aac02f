package telemetry

// Exposition tests for the variance-observatory additions: the abort-cause
// taxonomy series, the WAL-unavailable counter, the WAL queue-depth gauge,
// and the build-info series.

import (
	"bytes"
	"strings"
	"testing"

	"gstm/internal/obs"
)

func TestWritePrometheusAbortCauseTaxonomy(t *testing.T) {
	m := NewDetached("causes")
	m.TxStart(0)
	m.TxAbort(0, obs.CauseLockBusy)
	m.TxAbort(0, obs.CauseLockBusy)
	m.TxAbort(2, obs.CauseWALUnavailable)
	m.WALRefused(3)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`gstm_tx_aborts_by_cause_total{cause="lock-busy"} 2`,
		`gstm_tx_aborts_by_cause_total{cause="wal-unavailable"} 1`,
		// Untouched causes still emit a stable zero series.
		`gstm_tx_aborts_by_cause_total{cause="read-validation"} 0`,
		`gstm_tx_aborts_by_cause_total{cause="clock-cas"} 0`,
		`gstm_tx_aborts_by_cause_total{cause="gate-timeout"} 0`,
		`gstm_tx_aborts_by_cause_total{cause="retry-budget"} 0`,
		"gstm_wal_unavailable_total 1",
		"gstm_tx_aborts_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	// A counted abort always has a cause; "none" must not be a series.
	if strings.Contains(out, `cause="none"`) {
		t.Errorf("exposition emits a cause=\"none\" series\n%s", out)
	}
	// Every taxonomy label appears exactly once.
	for i := 1; i < int(obs.NumCauses); i++ {
		label := `cause="` + obs.CauseName(i) + `"`
		if n := strings.Count(out, label); n != 1 {
			t.Errorf("label %s appears %d times, want 1", label, n)
		}
	}
}

func TestWritePrometheusGaugesAndBuildInfo(t *testing.T) {
	shard0, shard1 := New("shard0"), New("shard1")
	defer shard1.Unregister()
	shard0.SetWALQueueDepth(func() uint64 { return 7 })
	shard1.SetWALQueueDepth(func() uint64 { return 3 })

	// The depth is a per-component series: Gather's Components carry it.
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, Gather()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gstm_wal_queue_depth gauge",
		`gstm_wal_queue_depth{component="shard0"} 7`,
		`gstm_wal_queue_depth{component="shard1"} 3`,
		"# TYPE gstm_build_info gauge",
		"gstm_build_info{goversion=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}

	// Unregistering a component removes its series from the next scrape:
	// a shut-down server's logs must not linger.
	shard0.Unregister()
	buf.Reset()
	if err := WritePrometheus(&buf, Gather()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `gstm_wal_queue_depth{component="shard0"}`) {
		t.Errorf("unregistered component's depth still exported:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `gstm_wal_queue_depth{component="shard1"} 3`) {
		t.Errorf("another component's depth vanished with the unregistered one:\n%s", buf.String())
	}
}
