// Command bench is the repository's one serving benchmark: it boots an
// in-process server.Server, drives it over loopback TCP from two closed-loop
// client connections, checks every answer it can, and prints each metric by
// name with its unit. README.md describes the workloads, the metrics and why
// the run has the shape it has.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"gstm/internal/stats"
)

// endToEnd lists the end-to-end metrics with their bounds: the share of the
// parent's median by which each may worsen before a change counts as a
// regression (BENCHMARK.json carries the same values; bench_test.go checks
// they agree, and README.md says where they come from).
var endToEnd = []struct {
	name  string
	bound float64
}{
	{"ops_per_s", 0.20},
	{"p50_us", 0.25},
	{"p95_us", 0.25},
	{"live_heap_mb", 0.10},
	{"setup_s", 0.25},
}

// sliceLen is the length of one measured slice; a run of -seconds N measures
// N seconds' worth of them. Short slices and many of them, because this
// kind of host disturbs a run in bursts: README.md "Run shape".
const sliceLen = 100 * time.Millisecond

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result (default: all five, as a table)")
		seed    = flag.Uint64("seed", 1, "op-stream seed")
		seconds = flag.Int("seconds", 12, "measured seconds per workload, cut into 100 ms slices")
		trace   = flag.Int("trace", 0, "1 = traced run: trace bit set, layer ladder, per-layer metrics, span file")
		repeat  = flag.Int("repeat", 1, "run the suite this many times and print each end-to-end metric's min/median/max and spread beside its bound")
		outDir  = flag.String("out", "out", "directory for the traced run's span files and, during a run, the WAL")
		commit  = flag.String("commit", "unknown", "commit being measured, for the environment block (run.sh fills it in)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *repeat, *outDir, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, repeat int, outDir, commit string) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if name != "" {
		return runOne(name, seed, seconds, traced, outDir, commit)
	}

	// Suite: every workload, repeat times over, each run a child process
	// invoked exactly as the driver invokes it. Fresh processes, because the
	// program's process-wide telemetry registry keeps every System ever made:
	// in one process each workload's live_heap_mb would carry its
	// predecessors' leftovers.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	runs := make(map[string][]map[string]float64)
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			vals, err := runChild(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", trace, "-out", outDir, "-commit", commit)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			runs[w.name] = append(runs[w.name], vals)
		}
	}
	if repeat > 1 && !traced {
		printSpread(runs)
	}
	return nil
}

// runOne is what the driver invokes: one workload, one process, the result
// line last.
func runOne(name string, seed uint64, seconds int, traced bool, outDir, commit string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	// The WAL stays inside the checkout, beside the span files.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	walRoot, err := os.MkdirTemp(outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walRoot)
	o := options{seed: seed, slices: seconds * int(time.Second/sliceLen), traced: traced, outDir: outDir, walRoot: walRoot,
		setups: setups, warmOps: warmOps, ladderOps: ladderOps}
	printEnv(o, commit)
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	printResult(res)
	if err := printDriverLine(res); err != nil {
		return err
	}
	if !res.correct() {
		return fmt.Errorf("%s: %d oracle mismatches", w.name, res.mismatched)
	}
	return nil
}

// runChild runs one workload in a child process, passing its output through,
// and returns the metric values of its closing result line. The child has
// exited by the time runChild returns.
func runChild(self string, args ...string) (map[string]float64, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last = sc.Text(); !strings.HasPrefix(last, "{") {
			fmt.Println(last)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, err
	}
	var res struct {
		Correct bool
		Failed  uint64
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("incorrect result or %d failed operations", res.Failed)
	}
	vals := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

func printResult(res *result) {
	fmt.Printf("\n%s  (%.1fs, %d ops attempted, %d failed, %d oracle mismatches)\n",
		res.workload, res.took.Seconds(), res.attempted, res.failed, res.mismatched)
	for _, m := range res.metrics {
		fmt.Printf("  %-28s %16.4f %s\n", m.name, m.value, m.unit)
	}
}

// printDriverLine ends the output with the one JSON object the benchmark
// driver reads.
func printDriverLine(res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, make(map[string]value)}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", buf)
	return nil
}

// printSpread is the -repeat table: per workload and end-to-end metric, the
// extremes and median over the repeats and their relative spread, beside the
// bound the spread must stay well inside for the bound to mean anything.
func printSpread(runs map[string][]map[string]float64) {
	fmt.Printf("\n%-16s %-13s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			var v []float64
			for _, r := range runs[w.name] {
				v = append(v, r[m.name])
			}
			med := stats.Median(v)
			fmt.Printf("%-16s %-13s %12.3f %12.3f %12.3f %7.1f%% %5.0f%%\n", w.name, m.name,
				slices.Min(v), med, slices.Max(v), 100*(slices.Max(v)-slices.Min(v))/med, 100*m.bound)
		}
	}
}

// printEnv records what produced the numbers.
func printEnv(o options, commit string) {
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	fmt.Printf("env: seed=%d slices=%d×%v conns=%d window=%d traced=%v\n",
		o.seed, o.slices, sliceLen, conns, pipeWindow, o.traced)
	fmt.Printf("env: wal dir=%s fs=%s fsync-interval=%v snapshot-every=%d\n",
		o.walRoot, fsType(o.walRoot), walFsyncInterval, snapshotEvery)
}

// fsType names the filesystem holding dir, for the handful a WAL is likely
// to sit on; fsync costs nothing on tmpfs and a device round trip elsewhere.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}
