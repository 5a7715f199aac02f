package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"gstm/internal/server"
)

// contract mirrors ../BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(buf, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// small shrinks a workload and a run to test size: same mix, same server
// shape, a few thousand keys and ops.
func small(t *testing.T, w *workload, traced bool) (*workload, options) {
	sw := *w
	sw.keys = min(w.keys, 4096)
	// Like a real run, the test writes only under bench/out.
	if err := os.MkdirAll("out", 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("out", "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return &sw, options{
		seed: 7, slices: 2, traced: traced,
		outDir: dir, walRoot: dir, setups: 1, warmOps: 4 * profileOps * profileSlices, ladderOps: 2000,
	}
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMetricsEmitted runs every workload BENCHMARK.json names, traced
// and untraced, and requires every metric it names, with its unit, and passing
// oracles.
func TestContractMetricsEmitted(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the bench has %d", len(c.Workloads), len(workloads))
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, main.go %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, e := range c.EndToEnd {
		if endToEnd[i].name != e.Name || endToEnd[i].bound != e.Bound {
			t.Errorf("end-to-end metric %d: %s bound %v in BENCHMARK.json, %s bound %v in main.go", i, e.Name, e.Bound, endToEnd[i].name, endToEnd[i].bound)
		}
	}
	for _, cw := range c.Workloads {
		w := findWorkload(cw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %q is not in the bench", cw.Name)
		}
		if !nameRE.MatchString(cw.Name) || len(cw.Why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", cw.Name, len(cw.Why))
		}
		for _, traced := range []bool{false, true} {
			sw, o := small(t, w, traced)
			if traced {
				o.slices = 4 // one of each traced slice kind
			}
			res, err := runWorkload(sw, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", cw.Name, traced, err)
			}
			if !res.correct() || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed, %d mismatched", cw.Name, traced, res.attempted, res.failed, res.mismatched)
			}
			want := map[string]string{}
			if traced {
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range c.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", cw.Name, traced, len(res.metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.get(name)
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", cw.Name, traced, name)
				case m.unit != unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", cw.Name, name, m.unit, unit)
				case !nameRE.MatchString(name) || !unitRE.MatchString(unit):
					t.Errorf("%s: bad metric name or unit %q %q", cw.Name, name, unit)
				case !traced && m.value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", cw.Name, name, m.value)
				}
			}
			if traced {
				checkLayerIsolation(t, w, res)
			}
		}
	}
}

// checkLayerIsolation: the workloads exercise the layers they claim to, and
// leave the others idle.
func checkLayerIsolation(t *testing.T, w *workload, res *result) {
	val := func(name string) float64 { m, _ := res.get(name); return m.value }
	if got := val("wal.bytes_per_op") > 0; got != w.durable {
		t.Errorf("%s: wal.bytes_per_op > 0 is %v", w.name, got)
	}
	if got := val("shard.xprepare_ns") > 0; got != (w.txnPct > 0) {
		t.Errorf("%s: shard.xprepare_ns > 0 is %v", w.name, got)
	}
	if passed := val("guide.gate_held_frac") + val("guide.gate_escaped_frac"); !w.guided && passed != 0 {
		t.Errorf("%s: gate active on an unguided workload", w.name)
	}
	for _, name := range []string{"tl2.engine_ns_per_op", "stmds.table_ns_per_op", "shard.route_ns_per_op", "server.wire_ns_per_op"} {
		if val(name) <= 0 {
			t.Logf("%s: ladder self time %s = %v at test size", w.name, name, val(name))
		}
	}
}

func TestStreamIsAFunctionOfSeedAndMix(t *testing.T) {
	ru, hg, hu := findWorkload("read_uniform"), findWorkload("hot_guided"), findWorkload("hot_unguided")
	const n = 10_000
	if streamHash(ru, 1, n) != streamHash(ru, 1, n) {
		t.Error("same seed, different stream")
	}
	if streamHash(ru, 1, n) == streamHash(ru, 2, n) {
		t.Error("different seeds, same stream")
	}
	if streamHash(hg, 1, n) != streamHash(hu, 1, n) {
		t.Error("hot_guided and hot_unguided streams differ")
	}
	if streamHash(hu, 1, n) == streamHash(ru, 1, n) {
		t.Error("different mixes, same stream")
	}
}

// TestOracleTrips plants a wrong value behind the bench's back and requires
// both oracles to notice: the per-Get check during a slice and the final scan.
func TestOracleTrips(t *testing.T) {
	w, o := small(t, findWorkload("read_uniform"), false)
	in, _, err := setup(w, o)
	if err != nil {
		t.Fatal(err)
	}
	defer in.stop()
	if bad, err := in.verify(); err != nil || bad != 0 {
		t.Fatalf("clean store: %d mismatches, err %v", bad, err)
	}
	cl, err := server.Dial(in.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for k := uint64(0); k < uint64(w.keys); k += 2 {
		if _, err := cl.Put(k, baseValue(k)+1); err != nil {
			t.Fatal(err)
		}
	}
	// Get-only from here on, so the mix's own Puts cannot repair the damage.
	w.getPct, w.putPct = 100, 0
	if _, _, err := newMeasurer(in, false).slice(kSync, 50*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, mismatched := in.totals(); mismatched == 0 {
		t.Error("wrong Get values went unnoticed during the slice")
	}
	if bad, err := in.verify(); err != nil || bad != w.keys/2 {
		t.Errorf("final scan found %d wrong keys (err %v), want %d", bad, err, w.keys/2)
	}

	// The acknowledged-delta side: an Add the client believes in but the
	// store never saw.
	hw, ho := small(t, findWorkload("hot_unguided"), false)
	hin, _, err := setup(hw, ho)
	if err != nil {
		t.Fatal(err)
	}
	defer hin.stop()
	hin.cs[0].acked[3]++
	if bad, err := hin.verify(); err != nil || bad != 1 {
		t.Errorf("phantom acknowledged Add: %d mismatches (err %v), want 1", bad, err)
	}
}
