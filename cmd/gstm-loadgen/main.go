// Command gstm-loadgen drives load against a running gstm-server and
// measures service-level run-to-run variance guided vs unguided: R
// repeated fixed-duration runs per mode reporting throughput and
// p50/p95/p99 latency, with variance as the coefficient of variation of
// per-run throughput and p95. With -out it writes the full comparison as
// BENCH_server.json. With -once it performs a single run in whatever mode
// the server is in (used by CI's server-smoke job), reporting aggregate
// and — against a sharded server — per-shard completion spread. With
// -speed-bench it sweeps the STM engine's hot-path variants (unboxed
// slot protocol over per-location lock words vs over striped lock
// tables) across workloads and GOMAXPROCS into BENCH_speed.json. Any run
// can mix cross-shard transfers into its load via -transfer-pct and
// assert conservation with -check-balance. The serving benchmark proper
// is bench/ (bash bench/run.sh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gstm/internal/server"
	"gstm/internal/speedbench"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7900", "gstm-server address")
		conns    = flag.Int("conns", 16, "concurrent client connections")
		duration = flag.Duration("duration", 2*time.Second, "length of each measured run (timed mode)")
		opsPer   = flag.Int("ops", 4000, "fixed-work mode: ops per connection per run (0 = timed mode)")
		runs     = flag.Int("runs", 5, "measured runs per mode (R)")
		keys     = flag.Int("keys", 128, "key-space size")
		skew     = flag.Float64("skew", 5, "key skew exponent (1 = uniform; larger = hotter head)")
		getPct   = flag.Int("get", 10, "percent GET")
		putPct   = flag.Int("put", 5, "percent PUT")
		delPct   = flag.Int("del", 5, "percent DEL (remainder is ADD)")
		seed     = flag.Uint64("seed", 0xC0FFEE, "workload seed")
		window   = flag.Int("window", 0, "pipeline depth per connection (0/1 = synchronous request/response)")
		once     = flag.Bool("once", false, "single run in the server's current mode; skip the guided/unguided comparison")
		spBench  = flag.Bool("speed-bench", false, "sweep engine hot-path variants (unboxed/unboxed+stripes) x workloads x GOMAXPROCS in-process (ignores -addr; BENCH_speed.json)")
		xferPct  = flag.Int("transfer-pct", 0, "percent of ops issued as two-key cross-shard transfers (one OpTxn each, zero-sum)")
		balance  = flag.Bool("check-balance", false, "after the run, sum the signed key-space total and fail unless it is zero (transfers conserve balance)")
		ledger   = flag.String("ledger", "", "drive an add-only load and write the acked/in-flight ledger JSON here; tolerates the server dying mid-run (kill-and-recover chaos)")
		verify   = flag.String("verify-ledger", "", "check a recovered server against a ledger file: acked <= value <= acked+inflight for every key")
		out      = flag.String("out", "", "write the report as JSON to this file (BENCH_server.json / BENCH_speed.json)")
		trace    = flag.Bool("trace", false, "set the protocol trace-request bit on every op (server retains a span per op on /debug/trace)")
		subs     = flag.Int("subscribers", 0, "long-poll watch connections riding alongside the load (each chains OpWatch on one hot key; wakeups reported as sub_wakeups)")
		traceTab = flag.String("trace-addr", "", "server telemetry address (host:port): scrape /debug/trace?format=agg around the run and print the per-shard per-phase tail-attribution table")
	)
	flag.Parse()

	if *spBench {
		speedBench(*out)
		return
	}
	if *verify != "" {
		led, err := server.ReadLedger(*verify)
		if err != nil {
			fatal(err)
		}
		violations, err := server.VerifyLedger(*addr, led)
		if err != nil {
			fatal(err)
		}
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "gstm-loadgen: VIOLATION:", v)
			}
			fatal(fmt.Errorf("%d ledger violations: recovery lost acknowledged writes", len(violations)))
		}
		fmt.Printf("ledger verified: %d acked keys, %d in-flight keys, no violations\n",
			len(led.Acked), len(led.Inflight))
		return
	}

	load := server.LoadConfig{
		Addr:        *addr,
		Conns:       *conns,
		Duration:    *duration,
		OpsPerConn:  *opsPer,
		Keys:        *keys,
		Skew:        *skew,
		GetPct:      *getPct,
		PutPct:      *putPct,
		DelPct:      *delPct,
		TransferPct: *xferPct,
		Seed:        *seed,
		Window:      *window,
		Trace:       *trace,
		Subscribers: *subs,
	}

	// Tail attribution: scrape the observatory's aggregation before the
	// measured work and again after it, so the printed table covers exactly
	// this invocation's requests.
	var aggBefore server.TraceAgg
	if *traceTab != "" {
		var err error
		if aggBefore, err = server.FetchTraceAgg(*traceTab); err != nil {
			fatal(fmt.Errorf("trace scrape (%s): %w", *traceTab, err))
		}
	}
	printTail := func() {
		if *traceTab == "" {
			return
		}
		aggAfter, err := server.FetchTraceAgg(*traceTab)
		if err != nil {
			fatal(fmt.Errorf("trace scrape (%s): %w", *traceTab, err))
		}
		fmt.Println("tail attribution (this run; phase latencies per shard):")
		fmt.Print(server.FormatTailTable(server.DiffTraceAgg(aggAfter, aggBefore)))
	}

	if *ledger != "" {
		led := server.RunLedgerLoad(load)
		if err := led.WriteFile(*ledger); err != nil {
			fatal(err)
		}
		fmt.Printf("ledger: %d ops acked over %d keys, %d errors, %d in-flight keys -> %s\n",
			led.Ops, len(led.Acked), led.Errors, len(led.Inflight), *ledger)
		return
	}

	if *once {
		// Against a sharded server, attribute traffic per shard and report
		// the per-shard completion spread next to the aggregate one.
		if ctl, err := server.Dial(*addr); err == nil {
			if n, err := ctl.Info(server.InfoShards); err == nil {
				load.Shards = int(n)
			}
			ctl.Close()
		}
		st, err := server.RunLoad(load)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ops=%d errors=%d throughput=%.0f ops/s p50=%.1fus p95=%.1fus p99=%.1fus\n",
			st.Ops, st.Errors, st.Throughput, st.P50us, st.P95us, st.P99us)
		if len(st.ShardOps) > 0 {
			fmt.Printf("spread: conns %.2f%%  shards %.2f%%  per-shard ops %v\n",
				st.ConnSpreadPct, st.ShardSpreadPct, st.ShardOps)
		}
		if st.Transfers > 0 {
			fmt.Printf("transfers: %d two-key atomic transfers committed\n", st.Transfers)
		}
		if load.Subscribers > 0 {
			fmt.Printf("subscribers: %d long-poll watchers, %d wakeups\n",
				load.Subscribers, st.SubWakeups)
		}
		printTail()
		if st.Ops == 0 {
			fatal(fmt.Errorf("no operations completed"))
		}
		if *balance {
			total, err := server.VerifyBalance(*addr, *keys)
			if err != nil {
				fatal(err)
			}
			if total != 0 {
				fatal(fmt.Errorf("balance check: signed key-space total %d, want 0 (a transfer tore)", total))
			}
			fmt.Printf("balance check: key-space total 0 across %d keys\n", *keys)
		}
		return
	}

	work := fmt.Sprintf("%d ops/conn", *opsPer)
	if *opsPer <= 0 {
		work = (*duration).String()
	}
	fmt.Fprintf(os.Stderr, "gstm-loadgen: %d runs/mode x %s, %d conns, %d keys (skew %.1f), mix get/put/del %d/%d/%d\n",
		*runs, work, *conns, *keys, *skew, *getPct, *putPct, *delPct)
	rep, err := server.BenchModes(server.BenchConfig{Load: load, Runs: *runs})
	if err != nil {
		fatal(err)
	}

	printMode := func(m server.ModeReport) {
		fmt.Printf("%-9s  %9.0f ops/s  cv %5.2f%%  p50 %7.1fus  p95 %7.1fus (cv %5.2f%%)  p99 %7.1fus  abort-ratio %.3f cv %5.2f%%  spread %5.2f%%  runtime-cv %5.2f%%  %d commits  %d aborts\n",
			m.Mode, m.ThroughputMean, m.ThroughputCVPct, m.P50MeanUs, m.P95MeanUs, m.P95CVPct, m.P99MeanUs,
			m.AbortRatioMean, m.AbortRatioCVPct, m.ConnSpreadMeanPct, m.RunTimeCVPct, m.Commits, m.Aborts)
	}
	printMode(rep.Unguided)
	printMode(rep.Guided)
	fmt.Printf("variance reduced (guided cv <= unguided cv): %v\n", rep.VarianceReduced)
	printTail()

	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gstm-loadgen: wrote %s\n", *out)
	}
}

// speedBench runs the engine hot-path sweep and writes BENCH_speed.json.
func speedBench(out string) {
	fmt.Fprintln(os.Stderr, "gstm-loadgen: engine speed sweep (unboxed vs unboxed+stripes x read-only,mixed,write-heavy x GOMAXPROCS 1,2,4,8)")
	rep := speedbench.Run(speedbench.Config{Progress: os.Stderr})
	fmt.Printf("striped within bound of per-location on read-only and mixed at every core count: %v\n", rep.StripedWithinBound)
	if out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gstm-loadgen: wrote %s\n", out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gstm-loadgen:", err)
	os.Exit(1)
}
