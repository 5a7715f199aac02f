package server

// Client-side tail attribution: gstm load scrapes the variance
// observatory's aggregation (/debug/trace?format=agg) before and after a
// measured run, diffs the raw bucket counts, and renders a per-shard
// per-phase latency table. Diffing snapshots makes the table run-local —
// it attributes only the time the run itself spent, even against a server
// that has been up for hours.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"gstm/internal/obs"
)

// TraceAgg aliases the observatory's aggregation snapshot for callers
// (gstm load) that hold scrapes without importing internal/obs.
type TraceAgg = obs.AggSnapshot

// FetchTraceAgg scrapes /debug/trace?format=agg from the telemetry
// endpoint at addr (host:port, no scheme).
func FetchTraceAgg(addr string) (obs.AggSnapshot, error) {
	var out obs.AggSnapshot
	resp, err := http.Get("http://" + addr + "/debug/trace?format=agg")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("trace agg scrape: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// DiffTraceAgg subtracts an earlier aggregation scrape from a later one,
// shard by shard and phase by phase, yielding the counts accumulated
// between the two.
func DiffTraceAgg(cur, prev obs.AggSnapshot) obs.AggSnapshot {
	prevAt := make(map[int]obs.ShardAggSnapshot, len(prev.Shards))
	for _, sh := range prev.Shards {
		prevAt[sh.Shard] = sh
	}
	out := obs.AggSnapshot{Shards: make([]obs.ShardAggSnapshot, 0, len(cur.Shards))}
	for _, sh := range cur.Shards {
		p := prevAt[sh.Shard]
		d := obs.ShardAggSnapshot{
			Shard:  sh.Shard,
			Phases: make(map[string]obs.HistCounts, len(sh.Phases)),
			Total:  sh.Total.Sub(p.Total),
		}
		for name, hc := range sh.Phases {
			if dc := hc.Sub(p.Phases[name]); dc.Count > 0 {
				d.Phases[name] = dc
			}
		}
		out.Shards = append(out.Shards, d)
	}
	return out
}

// FormatTailTable renders a per-shard per-phase tail-attribution table
// (count, p50/p99/p99.9, mean) from an aggregation snapshot — typically a
// DiffTraceAgg of two scrapes around one run. Phases print in request
// order, with the whole-span total last.
func FormatTailTable(a obs.AggSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5s  %-8s  %10s  %9s  %9s  %9s  %9s\n",
		"shard", "phase", "count", "p50", "p99", "p99.9", "mean")
	shards := append([]obs.ShardAggSnapshot(nil), a.Shards...)
	sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
	row := func(shard int, name string, hc obs.HistCounts) {
		fmt.Fprintf(&b, "%5d  %-8s  %10d  %9s  %9s  %9s  %9s\n",
			shard, name, hc.Count,
			fmtNs(hc.Quantile(0.50)), fmtNs(hc.Quantile(0.99)),
			fmtNs(hc.Quantile(0.999)), fmtNs(hc.MeanNs()))
	}
	for _, sh := range shards {
		for ph := 0; ph < int(obs.NumPhases); ph++ {
			name := obs.PhaseName(ph)
			if hc, ok := sh.Phases[name]; ok && hc.Count > 0 {
				row(sh.Shard, name, hc)
			}
		}
		if sh.Total.Count > 0 {
			row(sh.Shard, "total", sh.Total)
		}
	}
	return b.String()
}

// fmtNs renders a nanosecond quantile compactly (µs/ms resolution).
func fmtNs(ns uint64) string {
	d := time.Duration(ns)
	switch {
	case d == 0:
		return "-"
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d)/1e3)
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
