package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gstm/internal/obs"
	"gstm/internal/stats"
)

// span is one bench-side span: an interval around a call into the system
// under test, with the span that caused it. Times are ns since the run began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until write. A nil tracer
// records nothing, which is what untraced runs use. Only the run's main
// goroutine touches it; connection goroutines fill sample buffers that
// tracer.slice folds in afterwards.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// begin opens a span and returns its id (ids start at 1; parent 0 = none).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].EndNs = int64(time.Since(t.t0))
	}
}

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	return len(t.spans)
}

// slice records a finished slice and its sampled client operations.
func (t *tracer) slice(parent int, sr sliceResult) {
	if t == nil {
		return
	}
	id := t.add("slice:"+kindNames[sr.kind], parent, sr.start, sr.end)
	for _, s := range sr.samples {
		t.add("client.op", id, s[0], s[1])
	}
}

func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// counters is a snapshot of everything the program counts about itself that a
// per-layer metric is derived from, summed over shards.
type counters [cPhase0 + int(obs.NumPhases)]uint64

const (
	cCommits = iota
	cAborts
	cClockCAS
	cSpills
	cXCommits
	cXAborts
	cGatePassed
	cGateHeld
	cGateEscaped
	cWALAppends
	cWALBytes
	cWALFsyncs
	cWALSnapshots
	cMallocs
	cGCPauseNs
	cSpans  // finished server spans
	cSpanNs // their total duration
	cPhase0 // + obs.Phase: ns spent in that phase
)

func (c counters) sub(prev counters) counters {
	for i := range c {
		c[i] -= prev[i]
	}
	return c
}

func (c counters) add(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

func (in *instance) counters() counters {
	var c counters
	for sh := 0; sh < in.srv.Shards(); sh++ {
		sys := in.srv.Router().System(sh)
		commits, aborts := sys.Stats()
		c[cCommits] += commits
		c[cAborts] += aborts
		t := sys.TelemetrySnapshot()
		c[cClockCAS] += t.ClockCASFallbacks
		c[cSpills] += t.WriteSetSpills
		c[cXCommits] += t.XShardCommits
		c[cXAborts] += t.XShardAborts
		passed, held, escaped := sys.GateStats()
		c[cGatePassed] += passed
		c[cGateHeld] += held
		c[cGateEscaped] += escaped
		if l := in.srv.WAL(sh); l != nil {
			appends, bytes, fsyncs, snaps := l.Stats()
			c[cWALAppends] += appends
			c[cWALBytes] += bytes
			c[cWALFsyncs] += fsyncs
			c[cWALSnapshots] += snaps
		}
	}
	for _, sh := range in.srv.Observatory().Agg().Shards {
		c[cSpans] += sh.Total.Count
		c[cSpanNs] += sh.Total.SumNs
		for ph := 0; ph < int(obs.NumPhases); ph++ {
			c[cPhase0+ph] += sh.Phases[obs.PhaseName(ph)].SumNs
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs] = ms.Mallocs
	c[cGCPauseNs] = ms.PauseTotalNs
	return c
}

// layerMetrics derives the traced run's per-layer metrics. Every workload
// emits every name; a layer the workload leaves idle reads 0.
func layerMetrics(byKind [][]sliceResult, connSpread float64, lad ladder, steal float64) []metric {
	var all, tracedSl, pipes counters
	var ops, pipeOps int
	for k, srs := range byKind {
		for _, sr := range srs {
			all = all.add(sr.delta)
			ops += sr.ops
			if sliceKind(k).traced() {
				tracedSl = tracedSl.add(sr.delta)
			}
			if sliceKind(k).window() > 1 {
				pipes = pipes.add(sr.delta)
				pipeOps += sr.ops
			}
		}
	}
	col := func(k sliceKind, f func(sliceResult) float64) []float64 { return column(byKind[k], f) }
	tput := func(s sliceResult) float64 { return s.opsPerS }
	// A phase's cost is its ns per finished server span, so the phases of
	// one workload add up to (at most) span_total_ns.
	phase := func(p obs.Phase) float64 { return ratio(tracedSl[cPhase0+int(p)], tracedSl[cSpans]) }
	gate := all[cGatePassed] + all[cGateHeld] + all[cGateEscaped]
	untraced, traced := stats.Median(col(kPipe, tput)), stats.Median(col(kPipeTraced, tput))
	overhead := 0.0
	if untraced > 0 {
		overhead = 1 - traced/untraced
	}
	wire := self(stats.Median(col(kSolo, func(s sliceResult) float64 { return s.meanNs })), lad.deepest()+lad.codec)
	walSelf := 0.0
	if lad.wal > 0 {
		walSelf = self(lad.wal, lad.router)
	}

	return []metric{
		{"server.codec_ns_per_op", "ns", lad.codec},
		{"tl2.engine_ns_per_op", "ns", lad.engine},
		{"stmds.table_ns_per_op", "ns", self(lad.table, lad.engine)},
		{"shard.route_ns_per_op", "ns", self(lad.router, lad.table)},
		{"wal.append_ns_per_op", "ns", walSelf},
		{"server.wire_ns_per_op", "ns", wire},
		{"server.decode_ns", "ns", phase(obs.PhaseDecode)},
		{"server.queue_ns", "ns", phase(obs.PhaseQueue)},
		{"guide.gate_ns", "ns", phase(obs.PhaseGate)},
		{"tl2.retry_ns", "ns", phase(obs.PhaseRetry)},
		{"tl2.lock_ns", "ns", phase(obs.PhaseLock)},
		{"tl2.validate_ns", "ns", phase(obs.PhaseValidate)},
		{"tl2.publish_ns", "ns", phase(obs.PhasePublish)},
		{"wal.walack_ns", "ns", phase(obs.PhaseWALAck)},
		{"shard.xprepare_ns", "ns", phase(obs.PhaseXPrepare)},
		{"shard.xpublish_ns", "ns", phase(obs.PhaseXPublish)},
		{"server.span_total_ns", "ns", ratio(tracedSl[cSpanNs], tracedSl[cSpans])},
		{"server.ops_per_txn", "ops/txn", ratio(uint64(pipeOps), pipes[cCommits])},
		{"tl2.abort_ratio", "aborts/commit", ratio(all[cAborts], all[cCommits])},
		{"tl2.clock_cas_fallbacks", "count", float64(all[cClockCAS])},
		{"tl2.wset_spills", "count", float64(all[cSpills])},
		{"guide.gate_held_frac", "frac", ratio(all[cGateHeld], gate)},
		{"guide.gate_escaped_frac", "frac", ratio(all[cGateEscaped], gate)},
		{"shard.xshard_abort_ratio", "aborts/commit", ratio(all[cXAborts], all[cXCommits])},
		{"wal.bytes_per_op", "B/op", ratio(all[cWALBytes], uint64(ops))},
		{"wal.ops_per_fsync", "ops/fsync", ratio(uint64(ops), all[cWALFsyncs])},
		{"wal.snapshots", "count", float64(all[cWALSnapshots])},
		{"client.sync_ops_per_s", "ops/s", stats.Median(col(kSyncTraced, tput))},
		{"client.p99_us", "us", stats.Median(col(kSyncTraced, func(s sliceResult) float64 { return s.p99 }))},
		{"client.p999_us", "us", stats.Median(col(kSyncTraced, func(s sliceResult) float64 { return s.p999 }))},
		{"client.slice_cv_pct", "%", 100 * stats.CoefficientOfVariation(append(col(kPipe, tput), col(kPipeTraced, tput)...))},
		{"client.conn_spread_pct", "%", connSpread},
		{"runtime.mallocs_per_op", "allocs/op", ratio(all[cMallocs], uint64(ops))},
		{"runtime.gc_pause_ms", "ms", float64(all[cGCPauseNs]) / 1e6},
		{"obs.trace_overhead_frac", "frac", overhead},
		{"host.steal_frac", "frac", steal},
	}
}

// cpuTimes is the first line of /proc/stat: total and stolen jiffies.
type cpuTimes struct{ total, steal uint64 }

func readSteal() cpuTimes {
	var t cpuTimes
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t // not Linux: steal reads 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 || i > 8 { // "cpu", then user…steal; guest time is already inside user
			continue
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTimes) frac(since cpuTimes) float64 {
	return ratio(t.steal-since.steal, t.total-since.total)
}
