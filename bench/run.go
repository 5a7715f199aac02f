package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"gstm/internal/server"
	"gstm/internal/stats"
)

// instance is one booted server with its connected clients.
type instance struct {
	w      *workload
	o      options
	srv    *server.Server
	cs     []*client
	walDir string
}

// setup boots a server and brings it to the state the slices measure: fixed
// work, never fixed time. Boot, a pipelined Put of every key, warmOps ops of
// the workload's own mix; write_durable then shuts down and recovers from
// its log, and hot_guided keeps warming until its shard is guided. The
// returned duration is setup_s.
func setup(w *workload, o options) (*instance, time.Duration, error) {
	in := &instance{w: w, o: o}
	if w.durable {
		dir, err := os.MkdirTemp(o.walRoot, "wal-")
		if err != nil {
			return nil, 0, err
		}
		in.walDir = dir
	}
	t0 := time.Now()
	if err := in.boot(); err != nil {
		in.stop()
		return nil, 0, err
	}
	return in, time.Since(t0), nil
}

func (in *instance) start() error {
	in.srv = server.New(in.w.serverConfig(in.walDir))
	if err := in.srv.Start(); err != nil {
		in.srv = nil
		return fmt.Errorf("server start: %w", err)
	}
	for len(in.cs) < conns {
		in.cs = append(in.cs, newClient(in.w))
	}
	for _, c := range in.cs {
		if err := c.connect(in.srv.Addr().String()); err != nil {
			return err
		}
	}
	return nil
}

func (in *instance) boot() error {
	w := in.w
	if err := in.start(); err != nil {
		return err
	}
	// Preload: connection c puts keys c, c+conns, …
	_, _, _, err := driveAll(in.cs, scanWindow, 0, func(i int) func() (op, bool) {
		return keyRange(opPut, uint64(i), uint64(w.keys), conns)
	})
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	warm := make([]*stream, conns)
	for i := range warm {
		warm[i] = newStream(w, in.o.seed, warmStream+i)
	}
	warmup := func(n int) error {
		_, _, _, err := driveAll(in.cs, pipeWindow, 0, func(i int) func() (op, bool) {
			return warm[i].limited(n / conns)
		})
		return err
	}
	if err := warmup(in.o.warmOps); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if w.durable {
		// Recovery replay belongs to set-up: drain, close, reopen from the log.
		if err := in.shutdown(); err != nil {
			return fmt.Errorf("shutdown before recovery: %w", err)
		}
		if err := in.start(); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
	}
	if w.guided {
		// Time-to-guided belongs to set-up.
		for chunk := 0; !in.guidedEverywhere(); chunk++ {
			if chunk == maxChunks {
				return fmt.Errorf("not guided after %d extra warm-up chunks (mode %v)", maxChunks, in.srv.Mode())
			}
			if err := warmup(chunkOps); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

func (in *instance) guidedEverywhere() bool {
	for sh := 0; sh < in.srv.Shards(); sh++ {
		if in.srv.ShardMode(sh) != server.ModeGuided {
			return false
		}
	}
	return true
}

// shutdown drains and stops the server.
func (in *instance) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	in.srv = nil
	return err
}

// stop closes the clients, drains the server and removes the WAL directory.
func (in *instance) stop() {
	for _, c := range in.cs {
		c.close()
	}
	if in.srv != nil {
		_ = in.shutdown() // the run is over; a slow drain changes no result
	}
	if in.walDir != "" {
		_ = os.RemoveAll(in.walDir)
	}
}

// totals sums the clients' operation counts.
func (in *instance) totals() (attempted, failed, mismatched uint64) {
	for _, c := range in.cs {
		attempted += c.attempted
		failed += c.failed
		mismatched += c.mismatched
	}
	return
}

// Slice kinds. An untraced run alternates sync and pipe; a traced run cycles
// through traced sync, traced pipe, untraced pipe (the overhead baseline) and
// solo (one connection, one request outstanding: the wire residual's input).
type sliceKind int

const (
	kSync sliceKind = iota
	kPipe
	kSyncTraced
	kPipeTraced
	kSolo
	numKinds
)

var kindNames = [numKinds]string{"sync", "pipe", "sync+trace", "pipe+trace", "solo"}

func (k sliceKind) traced() bool { return k == kSyncTraced || k == kPipeTraced }
func (k sliceKind) window() int {
	if k == kPipe || k == kPipeTraced {
		return pipeWindow
	}
	return 1
}

type sliceResult struct {
	kind                sliceKind
	ops                 int
	opsPerS             float64
	meanNs              float64 // latency, window-1 slices only
	p50, p95, p99, p999 float64 // µs, window-1 slices only
	start, end          time.Time
	stolen              uint64   // jiffies the hypervisor took from this VM meanwhile
	delta               counters // traced runs only
	samples             [][2]time.Time
}

// measurer runs slices on an instance, reusing its sample buffers so the
// client side of the heap stays constant across a run.
type measurer struct {
	in      *instance
	streams []*stream
	lat     [][]uint32
	merged  []uint32
	sampled [][][2]time.Time
	traced  bool // snapshot the server's counters around every slice
}

func newMeasurer(in *instance, traced bool) *measurer {
	m := &measurer{in: in, traced: traced}
	for i := range in.cs {
		m.streams = append(m.streams, newStream(in.w, in.o.seed, i))
		m.lat = append(m.lat, make([]uint32, 0, 1<<17))
		m.sampled = append(m.sampled, make([][2]time.Time, 0, 1<<12))
	}
	return m
}

// slice measures one slice of the given kind. dur > 0 is a timed slice;
// otherwise every connection completes exactly fixedOps requests.
func (m *measurer) slice(kind sliceKind, dur time.Duration, fixedOps int) (sliceResult, []time.Duration, error) {
	cs := m.in.cs
	if kind == kSolo {
		cs = cs[:1]
	}
	for i, c := range cs {
		c.trace = kind.traced()
		c.lat = nil
		if kind.window() == 1 {
			c.lat = m.lat[i][:0]
		}
		c.sampled = nil
		if kind.traced() {
			m.sampled[i] = m.sampled[i][:0]
			c.sampled = &m.sampled[i]
		}
	}
	var before counters
	if m.traced {
		before = m.in.counters()
	}
	steal0 := readSteal()
	res := sliceResult{kind: kind, start: time.Now()}
	ops, took, wall, err := driveAll(cs, kind.window(), dur, func(i int) func() (op, bool) {
		if dur > 0 {
			return m.streams[i].endless()
		}
		return m.streams[i].limited(fixedOps)
	})
	res.end = res.start.Add(wall)
	res.stolen = readSteal().steal - steal0.steal
	if err != nil {
		return res, nil, err
	}
	if m.traced {
		res.delta = m.in.counters().sub(before)
	}
	for _, n := range ops {
		res.ops += n
	}
	res.opsPerS = float64(res.ops) / wall.Seconds()
	m.merged = m.merged[:0]
	for i, c := range cs {
		if c.lat != nil {
			m.lat[i] = c.lat // keep a grown buffer
			m.merged = append(m.merged, c.lat...)
		}
		if kind.traced() {
			res.samples = append(res.samples, m.sampled[i]...)
		}
	}
	if len(m.merged) > 0 {
		var sum float64
		for _, ns := range m.merged {
			sum += float64(ns)
		}
		res.meanNs = sum / float64(len(m.merged))
		slices.Sort(m.merged)
		res.p50 = quantileUs(m.merged, 0.50)
		res.p95 = quantileUs(m.merged, 0.95)
		res.p99 = quantileUs(m.merged, 0.99)
		res.p999 = quantileUs(m.merged, 0.999)
	}
	return res, took, nil
}

// undisturbed returns the slices during which the hypervisor stole no time
// from this VM. On the shared 2-core reference VM a run's slices fall into
// two populations — 1% of stolen time costs ~10% of throughput, because a
// descheduled vCPU stalls the whole client/worker pipeline — and how many
// fall into each drifts from minute to minute, which is what made whole-run
// medians differ by 10% between identical runs. When fewer than a quarter of
// the slices are clean the filter gives up and every slice counts.
func undisturbed(srs []sliceResult) []sliceResult {
	var clean []sliceResult
	for _, sr := range srs {
		if sr.stolen == 0 {
			clean = append(clean, sr)
		}
	}
	if len(clean) < (len(srs)+3)/4 {
		return srs
	}
	return clean
}

// column extracts one value per undisturbed slice.
func column(srs []sliceResult, f func(sliceResult) float64) []float64 {
	var v []float64
	for _, sr := range undisturbed(srs) {
		v = append(v, f(sr))
	}
	return v
}

// verify is the end-of-run oracle: scan every key over the wire and require
// value == baseValue + this run's acknowledged deltas, key by key. For
// write_durable the scan follows a crash and a recovery from the log, so it
// is also the durability check: nothing acknowledged may be missing, and
// nothing may be applied twice. It returns the number of keys that differ.
func (in *instance) verify() (int, error) {
	w := in.w
	if w.durable {
		in.srv.Crash()
		in.srv = nil
		if err := in.start(); err != nil {
			return 0, fmt.Errorf("recovery after crash: %w", err)
		}
	}
	vals := make([]uint64, w.keys)
	for _, c := range in.cs {
		c.scan, c.lat, c.sampled, c.trace = vals, nil, nil, false
	}
	_, _, _, err := driveAll(in.cs, scanWindow, 0, func(i int) func() (op, bool) {
		return keyRange(opGet, uint64(i), uint64(w.keys), conns)
	})
	for _, c := range in.cs {
		c.scan = nil
	}
	if err != nil {
		return 0, fmt.Errorf("final scan: %w", err)
	}
	return countMismatches(vals, in.cs), nil
}

// countMismatches compares scanned values with what the clients' acknowledged
// operations imply.
func countMismatches(vals []uint64, cs []*client) int {
	bad := 0
	for k, v := range vals {
		want := baseValue(uint64(k))
		for _, c := range cs {
			if c.acked != nil {
				want += uint64(int64(c.acked[k]))
			}
		}
		if v != want {
			bad++
		}
	}
	return bad
}

// result is one workload run's outcome.
type result struct {
	workload          string
	metrics           []metric
	attempted, failed uint64
	mismatched        uint64 // oracle violations: wrong Get values + wrong final keys
	took              time.Duration
}

type metric struct {
	name, unit string
	value      float64
}

func (r *result) correct() bool { return r.mismatched == 0 }

// options are the knobs of one run; the suite, the driver's single-workload
// invocation and the test all go through runWorkload with them.
type options struct {
	seed    uint64
	slices  int // measured slices of sliceLen each
	traced  bool
	outDir  string // where a traced run writes its span file
	walRoot string
	// Fixed work: set-ups timed per untraced run, warm-up ops per set-up,
	// ops replayed per ladder rung. main uses the constants in workload.go
	// and ladder.go; the test shrinks them.
	setups, warmOps, ladderOps int
}

// runWorkload is one complete run of one workload: set-up, slices, heap
// reading, oracle, tear-down.
func runWorkload(w *workload, o options) (*result, error) {
	began := time.Now()
	tr := newTracer(o.traced)
	root := tr.begin("workload:"+w.name, 0)
	steal0 := readSteal()

	// An untraced run is several complete set-ups, each measured for its share
	// of the slices: three servers' worth of memory layout, scheduling and —
	// on hot_guided — trained model, so one unlucky instance cannot decide a
	// run. The traced run makes do with one.
	n := o.setups
	if o.traced {
		n = 1
	}
	cycle := []sliceKind{kSync, kPipe}
	if o.traced {
		cycle = []sliceKind{kSyncTraced, kPipeTraced, kPipe, kSolo}
	}
	byKind := make([][]sliceResult, numKinds)
	res := &result{workload: w.name}
	var in *instance
	defer func() {
		if in != nil {
			in.stop()
		}
	}()
	var m *measurer
	var setupS []float64
	for i := 0; i < n; i++ {
		if in != nil {
			a, f, mm := in.totals()
			res.attempted, res.failed, res.mismatched = res.attempted+a, res.failed+f, res.mismatched+mm
			in.stop()
		}
		sp := tr.begin("setup", root)
		var d time.Duration
		var err error
		in, d, err = setup(w, o)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, d.Seconds())

		m = newMeasurer(in, o.traced)
		for j := i * o.slices / n; j < (i+1)*o.slices/n; j++ {
			kind := cycle[j%len(cycle)]
			sr, _, err := m.slice(kind, sliceLen, 0)
			if err != nil {
				return nil, fmt.Errorf("%s: %s slice %d: %w", w.name, kindNames[kind], j, err)
			}
			byKind[kind] = append(byKind[kind], sr)
			tr.slice(root, sr)
		}
		if w.guided && !in.guidedEverywhere() {
			return nil, fmt.Errorf("%s: left guided mode during the run (mode %v)", w.name, in.srv.Mode())
		}
	}
	for k, srs := range byKind {
		if len(srs) > 0 {
			v := column(srs, func(s sliceResult) float64 { return s.opsPerS })
			fmt.Printf("  %-10s slices: %3d, undisturbed %3d, of those ops/s min %.0f median %.0f max %.0f\n",
				kindNames[k], len(srs), len(v), slices.Min(v), stats.Median(v), slices.Max(v))
		}
	}

	if o.traced {
		// Fixed work per connection: how unevenly do the connections finish?
		var spread []float64
		for i := 0; i < 4; i++ {
			sr, took, err := m.slice(kPipe, 0, 8192)
			if err != nil {
				return nil, fmt.Errorf("%s: fixed-work slice: %w", w.name, err)
			}
			tr.slice(root, sr)
			secs := make([]float64, len(took))
			for j, d := range took {
				secs[j] = d.Seconds()
			}
			spread = append(spread, 100*stats.CoefficientOfVariation(secs))
		}
		lad, err := runLadder(w, o, tr, root)
		if err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
		}
		res.metrics = layerMetrics(byKind, stats.Median(spread), lad, readSteal().frac(steal0))
	} else {
		// Twice: sync.Pool victims and finalizer-held objects outlive one cycle.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.metrics = []metric{
			{"ops_per_s", "ops/s", stats.Median(column(byKind[kPipe], func(s sliceResult) float64 { return s.opsPerS }))},
			{"p50_us", "us", stats.Median(column(byKind[kSync], func(s sliceResult) float64 { return s.p50 }))},
			{"p95_us", "us", stats.Median(column(byKind[kSync], func(s sliceResult) float64 { return s.p95 }))},
			{"live_heap_mb", "MB", float64(ms.HeapAlloc) / (1 << 20)},
			{"setup_s", "s", stats.Median(setupS)},
		}
	}

	bad, err := in.verify()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	a, f, mm := in.totals()
	res.attempted, res.failed, res.mismatched = res.attempted+a, res.failed+f, res.mismatched+mm+uint64(bad)
	tr.end(root)
	if o.traced {
		if err := tr.write(filepath.Join(o.outDir, "trace-"+w.name+".json"), w.name, o.seed); err != nil {
			return nil, err
		}
	}
	res.took = time.Since(began)
	return res, nil
}
