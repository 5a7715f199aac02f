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

	"gstm/internal/server"
	"gstm/internal/telemetry"
)

// serve runs the transactional key-value store over TCP on the guided STM,
// with the paper's lifecycle against live traffic: serve unguided while
// profiling the request stream, build and analyze the thread-state model
// in the background, and hot-swap into guided execution when the model
// passes (with the watchdog armed). SIGINT/SIGTERM drain gracefully:
// in-flight operations are answered before the process exits.
func serve(fs *flag.FlagSet, args []string) {
	var (
		addr          = fs.String("addr", "127.0.0.1:7900", "TCP listen address (\":0\" picks a free port)")
		shards        = fs.Int("shards", 1, "independent STM shards the keyspace is hash-partitioned across")
		workers       = fs.Int("workers", 4, "STM thread slots; each connection is homed on one, round-robin, and runs as its thread")
		batch         = fs.Int("batch", 8, "most requests a connection runs on its slot at once; same-kind disjoint-key ops among them share a transaction (1 disables batching)")
		buckets       = fs.Int("buckets", 4096, "hash table buckets")
		profileOps    = fs.Int("profile-ops", 2048, "committed ops per profiling slice")
		profileSlices = fs.Int("profile-slices", 4, "profiling slices before the model is trained")
		force         = fs.Bool("force-guidance", false, "install the trained model even if the analyzer rejects it")
		watchdog      = fs.Bool("watchdog", true, "arm the guidance watchdog on the hot-swapped model")
		unguided      = fs.Bool("unguided", false, "serve plain TL2 for the server's life: no profiling, no model")
		tfactor       = fs.Float64("tfactor", 0, "guidance Tfactor (0 = default)")
		metrics       = fs.String("metrics-addr", "", "serve live telemetry on this address (e.g. :9100 or :0): /metrics (Prometheus), /debug/vars (JSON), /debug/pprof")
		drainTimeout  = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
		procs         = fs.Int("gomaxprocs", 0, "GOMAXPROCS (0 = runtime default)")
		walDir        = fs.String("wal-dir", "", "durability: per-shard write-ahead log directory (empty = in-memory only); restarts recover snapshot+log before serving")
		fsyncInterval = fs.Duration("fsync-interval", 0, "WAL fsync window: 0 fsyncs before every ack (strict, survives power loss); >0 acks from page cache and fsyncs per interval (relaxed, survives SIGKILL)")
		snapshotEvery = fs.Int("snapshot-every", 0, "WAL snapshot+truncate cycle after this many logged commits per shard (0 = never)")
		guidedWarmup  = fs.Bool("guided-warmup", false, "log aborts too and pre-train each shard's model from the replayed Tseq on recovery")
	)
	_ = fs.Parse(args)
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	s := server.New(server.Config{
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
	})
	tel := startTelemetry(*metrics, telemetry.Mount{Pattern: "/debug/trace", Handler: s.Observatory().Handler()})

	exitOn(s.Start())
	durability := "off"
	if *walDir != "" {
		durability = "strict"
		if *fsyncInterval > 0 {
			durability = fmt.Sprintf("relaxed(%v)", *fsyncInterval)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: listening on %s (%d shards, %d workers, batch %d, mode %s, durability %s)\n",
		prog, s.Addr(), s.Shards(), *workers, *batch, s.Mode(), durability)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(os.Stderr, "%s: draining...\n", prog)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain incomplete: %v\n", prog, err)
	}
	if tel != nil {
		if err := tel.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: telemetry drain: %v\n", prog, err)
		}
	}
	commits, aborts := s.Router().Stats()
	fmt.Fprintf(os.Stderr, "%s: done (mode %s, %d commits, %d aborts)\n", prog, s.Mode(), commits, aborts)
}
