// Command gstm-loadgen drives one load run against a running gstm-server,
// in whatever mode the server is in, and reports aggregate throughput and
// p50/p95/p99 latency. Against a sharded server it also reports per-shard
// op counts and completion spread. -transfer-pct mixes two-key cross-shard
// transfers into the load and -check-balance asserts they conserved the
// key-space total; -trace-addr prints the run's per-shard tail-attribution
// table; -ledger / -verify-ledger drive and check the kill-and-recover
// durability drill. Performance numbers, including the paper's guided vs
// unguided comparison, come from the serving benchmark: bash bench/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gstm/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7900", "gstm-server address")
		conns    = flag.Int("conns", 16, "concurrent client connections")
		duration = flag.Duration("duration", 2*time.Second, "length of the run (timed mode)")
		opsPer   = flag.Int("ops", 4000, "fixed-work mode: ops per connection (0 = timed mode)")
		keys     = flag.Int("keys", 128, "key-space size")
		skew     = flag.Float64("skew", 5, "key skew exponent (1 = uniform; larger = hotter head)")
		getPct   = flag.Int("get", 10, "percent GET")
		putPct   = flag.Int("put", 5, "percent PUT")
		delPct   = flag.Int("del", 5, "percent DEL (remainder is ADD)")
		seed     = flag.Uint64("seed", 0xC0FFEE, "workload seed")
		window   = flag.Int("window", 0, "pipeline depth per connection (0/1 = synchronous request/response)")
		xferPct  = flag.Int("transfer-pct", 0, "percent of ops issued as two-key cross-shard transfers (one OpTxn each, zero-sum)")
		balance  = flag.Bool("check-balance", false, "after the run, sum the signed key-space total and fail unless it is zero (transfers conserve balance)")
		ledger   = flag.String("ledger", "", "drive an add-only load and write the acked/in-flight ledger JSON here; tolerates the server dying mid-run (kill-and-recover chaos)")
		verify   = flag.String("verify-ledger", "", "check a recovered server against a ledger file: acked <= value <= acked+inflight for every key")
		trace    = flag.Bool("trace", false, "set the protocol trace-request bit on every op (server retains a span per op on /debug/trace)")
		subs     = flag.Int("subscribers", 0, "long-poll watch connections riding alongside the load (each chains OpWatch on one hot key; wakeups reported as sub_wakeups)")
		traceTab = flag.String("trace-addr", "", "server telemetry address (host:port): scrape /debug/trace?format=agg around the run and print the per-shard per-phase tail-attribution table")
	)
	flag.Parse()

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
	if *ledger != "" {
		led := server.RunLedgerLoad(load)
		if err := led.WriteFile(*ledger); err != nil {
			fatal(err)
		}
		fmt.Printf("ledger: %d ops acked over %d keys, %d errors, %d in-flight keys -> %s\n",
			led.Ops, len(led.Acked), led.Errors, len(led.Inflight), *ledger)
		return
	}

	// Against a sharded server, attribute traffic per shard and report the
	// per-shard completion spread next to the aggregate one.
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
	if *traceTab != "" {
		aggAfter, err := server.FetchTraceAgg(*traceTab)
		if err != nil {
			fatal(fmt.Errorf("trace scrape (%s): %w", *traceTab, err))
		}
		fmt.Println("tail attribution (this run; phase latencies per shard):")
		fmt.Print(server.FormatTailTable(server.DiffTraceAgg(aggAfter, aggBefore)))
	}
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gstm-loadgen:", err)
	os.Exit(1)
}
