// Command gstm-server serves a transactional key-value store over TCP on
// the guided STM. It runs the paper's lifecycle against live traffic:
// serve unguided while profiling the request stream, build and analyze
// the thread-state model in the background, and hot-swap into guided
// execution when the model passes (with the watchdog armed). SIGINT/
// SIGTERM drain gracefully: in-flight operations are answered before the
// process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gstm"
	"gstm/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7900", "TCP listen address (\":0\" picks a free port)")
		shards        = flag.Int("shards", 1, "independent STM shards the keyspace is hash-partitioned across")
		workers       = flag.Int("workers", 4, "STM thread slots; each connection is homed on one, round-robin, and runs as its thread")
		batch         = flag.Int("batch", 8, "most requests a connection runs on its slot at once; same-kind disjoint-key ops among them share a transaction (1 disables batching)")
		buckets       = flag.Int("buckets", 4096, "hash table buckets")
		profileOps    = flag.Int("profile-ops", 2048, "committed ops per profiling slice")
		profileSlices = flag.Int("profile-slices", 4, "profiling slices before the model is trained")
		force         = flag.Bool("force-guidance", false, "install the trained model even if the analyzer rejects it")
		watchdog      = flag.Bool("watchdog", true, "arm the guidance watchdog on the hot-swapped model")
		unguided      = flag.Bool("unguided", false, "serve plain TL2 for the server's life: no profiling, no model")
		tfactor       = flag.Float64("tfactor", 0, "guidance Tfactor (0 = default)")
		metrics       = flag.String("metrics-addr", "", "serve live telemetry on this address (e.g. :9100 or :0): /metrics (Prometheus), /debug/vars (JSON), /debug/pprof")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
		procs         = flag.Int("gomaxprocs", 0, "GOMAXPROCS (0 = runtime default)")
		walDir        = flag.String("wal-dir", "", "durability: per-shard write-ahead log directory (empty = in-memory only); restarts recover snapshot+log before serving")
		fsyncInterval = flag.Duration("fsync-interval", 0, "WAL fsync window: 0 fsyncs before every ack (strict, survives power loss); >0 acks from page cache and fsyncs per interval (relaxed, survives SIGKILL)")
		snapshotEvery = flag.Int("snapshot-every", 0, "WAL snapshot+truncate cycle after this many logged commits per shard (0 = never)")
		guidedWarmup  = flag.Bool("guided-warmup", false, "log aborts too and pre-train each shard's model from the replayed Tseq on recovery")
	)
	flag.Parse()
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	cfg := server.Config{
		Addr:          *addr,
		Shards:        *shards,
		Workers:       *workers,
		Batch:         *batch,
		Buckets:       *buckets,
		ProfileOps:    *profileOps,
		ProfileSlices: *profileSlices,
		ForceGuidance: *force,
		Tfactor:       *tfactor,
		Unguided:      *unguided,
		WALDir:        *walDir,
		FsyncInterval: *fsyncInterval,
		SnapshotEvery: *snapshotEvery,
		GuidedWarmup:  *guidedWarmup,
		Watchdog:      *watchdog,
	}

	s := server.New(cfg)

	var drainTelemetry func(context.Context) error
	if *metrics != "" {
		srv, err := gstm.ServeTelemetry(*metrics, gstm.TelemetryMount{
			Pattern: "/debug/trace",
			Handler: gstm.TraceHandler(s.Observatory()),
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics, /debug/vars, /debug/pprof, /debug/trace on http://%s\n", srv.BoundAddr)
		drainTelemetry = srv.Shutdown
	}

	if err := s.Start(); err != nil {
		fatal(err)
	}
	durability := "off"
	if *walDir != "" {
		durability = "strict"
		if *fsyncInterval > 0 {
			durability = fmt.Sprintf("relaxed(%v)", *fsyncInterval)
		}
	}
	fmt.Fprintf(os.Stderr, "gstm-server: listening on %s (%d shards, %d workers, batch %d, mode %s, durability %s)\n",
		s.Addr(), s.Shards(), *workers, *batch, s.Mode(), durability)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "gstm-server: draining...")

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "gstm-server: drain incomplete:", err)
	}
	if drainTelemetry != nil {
		if err := drainTelemetry(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "gstm-server: telemetry drain:", err)
		}
	}
	commits, aborts := s.Router().Stats()
	fmt.Fprintf(os.Stderr, "gstm-server: done (mode %s, %d commits, %d aborts)\n", s.Mode(), commits, aborts)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gstm-server:", err)
	os.Exit(1)
}
