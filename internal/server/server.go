package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gstm"
	"gstm/internal/obs"
	"gstm/internal/shard"
	"gstm/internal/stmds"
	"gstm/internal/wal"
)

// Config parameterizes a Server. The zero value is not usable; call
// (Config).normalize via New, which fills defaults.
type Config struct {
	// Addr is the TCP listen address; ":0" picks a free port (see
	// Server.Addr for the bound one).
	Addr string

	// Shards is the number of independent STM Systems the keyspace is
	// hash-partitioned across (default 1). Each shard runs its own TL2
	// runtime with a private version clock, its own store partition, its
	// own guidance lifecycle and its own telemetry label ("shard<i>"), so
	// one shard's conflicts, clock traffic or rejected model never touch a
	// neighbor.
	Shards int

	// Workers is the number of STM thread slots (default 4). Each
	// connection is homed on one slot at accept, round-robin, and its reader
	// runs every transaction the connection sends — batches and OpTxn
	// multi-key transactions alike — as that slot's gstm.ThreadID on
	// whichever shards its keys route to, one reader at a time per slot. So
	// each shard's profiled Thread State Automaton keeps the paper's thread
	// identity over live traffic: a thread is a fixed share of the
	// connections (DESIGN.md "Dispatch").
	Workers int

	// Batch is the most data requests a connection reader runs on its slot
	// at once, a chunk (default 8; 1 disables batching). A chunk is cut
	// where a key repeats; within each key-disjoint segment the operations
	// of one kind coalesce into one transaction (DESIGN.md "Batching
	// rules"). A batch of single-key operations spanning several shards
	// executes as one transaction per shard (see DESIGN.md "Sharding"); a
	// batch of OpTxns, as one cross-shard transaction.
	Batch int

	// Buckets sizes the hash table across all shards (default 4096); each
	// shard's partition gets Buckets/Shards of them.
	Buckets int

	// ProfileOps is how many committed operations one profiling slice
	// spans (default 2048); ProfileSlices is how many sliced traces are
	// collected before the model is trained (default 4). Together they are
	// the serving analogue of the paper's repeated profiling runs. Each
	// shard counts its own operations and walks the lifecycle at its own
	// pace.
	ProfileOps    int
	ProfileSlices int

	// ForceGuidance installs the trained model even when the analyzer
	// rejects it (experiments and tests); otherwise rejection latches
	// ModeRejected on that shard and it keeps serving unguided.
	ForceGuidance bool

	// Tfactor tunes guidance (zero = default); the library's k has no use
	// here, as no transaction waits at a gate (DESIGN.md "Dispatch").
	// Watchdog arms the guidance watchdog on every hot-swapped model.
	Tfactor  float64
	Watchdog bool

	// Unguided keeps every shard in ModeUnguided for the server's life:
	// no profiling, no model, plain TL2.
	Unguided bool

	// WALDir, when non-empty, turns durability on: each shard keeps a
	// write-ahead log of its commit sequence under WALDir/shard<i>, Start
	// recovers snapshot+log before serving, and mutating operations are
	// acknowledged only after their record reaches the log (see
	// internal/wal). Empty keeps the server purely in-memory.
	WALDir string

	// FsyncInterval selects the WAL durability mode: zero fsyncs every
	// group-committed batch before acking (strict — acked writes survive
	// power loss); positive acks on write to the page cache and fsyncs at
	// most once per interval (relaxed — acked writes survive process
	// kills; the loss window on OS failure is the interval).
	FsyncInterval time.Duration

	// SnapshotEvery triggers a WAL snapshot+truncate cycle after that many
	// logged commits per shard (0 disables automatic snapshots).
	SnapshotEvery int

	// GuidedWarmup also logs abort events and, on recovery, pre-trains
	// each shard's model from the replayed Tseq so the shard restarts
	// guided instead of re-profiling from cold.
	GuidedWarmup bool

	// WALFS, when non-nil, is the file system every shard's WAL reaches
	// the disk through (tests record or fail its operations); nil is the
	// OS.
	WALFS wal.FS
}

func (cfg Config) normalize() Config {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 4096
	}
	if cfg.ProfileOps <= 0 {
		cfg.ProfileOps = 2048
	}
	if cfg.ProfileSlices <= 0 {
		cfg.ProfileSlices = 4
	}
	return cfg
}

// Server is a network-facing transactional KV store on the guided STM,
// hash-partitioned across cfg.Shards independent Systems.
type Server struct {
	cfg    Config
	router *shard.Router
	stores []*stmds.HashTable[uint64] // stores[s]: shard s's partition
	lcs    []*lifecycle               // lcs[s]: shard s's guidance lifecycle
	ln     net.Listener

	workers []*worker     // the STM thread slots
	rr      atomic.Uint32 // round-robin home-slot cursor, advanced once per connection

	// wals[s] is shard s's write-ahead log (nil slice when durability is
	// off).
	wals []*wal.Log

	// inflight counts open read bursts and parked watches, each of which
	// owes replies; Shutdown drains it.
	inflight sync.WaitGroup
	draining atomic.Bool
	stopped  atomic.Bool // set after drain or at a crash: readers run no further chunk
	wg       sync.WaitGroup

	// watchCtx is the park context of every blocking watch transaction
	// (OpWatch/OpWaitKey long-polls). watchCancel fires at the start of
	// Shutdown and Crash — before inflight.Wait — so parked watches wake,
	// answer StatusShutdown, and release their inflight slots; without it a
	// drain would wait forever on a watch whose key never changes.
	watchCtx    context.Context
	watchCancel context.CancelFunc

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// obs is the variance observatory: every batch sub-transaction records
	// a span (decode, queue wait, attempts with abort causes, commit
	// phases, WAL ack wait) into it. Always on; it retains the slowest
	// spans and those whose request set the trace bit.
	obs *obs.Observatory
}

// New builds a Server (not yet listening) with cfg.Shards independent
// gstm.Systems, each sized to cfg.Workers threads.
func New(cfg Config) *Server {
	cfg = cfg.normalize()
	s := &Server{
		cfg: cfg,
		router: shard.New(shard.Config{
			Shards:  cfg.Shards,
			Threads: cfg.Workers,
		}),
		conns: make(map[net.Conn]struct{}),
		obs:   obs.New(cfg.Shards, cfg.threads()),
	}
	s.watchCtx, s.watchCancel = context.WithCancel(context.Background())
	buckets := cfg.Buckets / cfg.Shards
	if buckets < 16 {
		buckets = 16
	}
	for i := 0; i < cfg.Shards; i++ {
		s.stores = append(s.stores, stmds.NewHashTable[uint64](buckets))
		s.lcs = append(s.lcs, &lifecycle{sys: s.router.System(i), cfg: &s.cfg})
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers = append(s.workers, newWorker(s, i))
	}
	return s
}

// Router exposes the shard router (per-shard Systems, key homing) to the
// embedding command and tests.
func (s *Server) Router() *shard.Router { return s.router }

// System exposes shard 0's STM system — the whole system when the server
// is unsharded. Multi-shard callers should walk Router().
func (s *Server) System() *gstm.System { return s.router.System(0) }

// Shards returns the shard count.
func (s *Server) Shards() int { return s.router.Shards() }

// Observatory exposes the server's variance observatory; mount its Handler
// (or gstm.TraceHandler) as /debug/trace on the telemetry endpoint.
func (s *Server) Observatory() *obs.Observatory { return s.obs }

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Start opens durability (when configured) and recovers each shard from
// its write-ahead log, binds the listener, launches the accept loop, and
// starts every shard's guidance lifecycle (profiling, unless cfg.Unguided;
// shards guided-warmed by recovery keep their recovered model).
func (s *Server) Start() error {
	if s.cfg.WALDir != "" && s.wals == nil {
		if err := s.openDurability(); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.closeWALs()
		return err
	}
	s.ln = ln
	for _, lc := range s.lcs {
		// A shard recovery installed a guided model on keeps it.
		if !s.cfg.Unguided && lc.currentMode() == ModeUnguided {
			lc.start()
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		pprof.Do(context.Background(), pprof.Labels("gstm", "server-accept"),
			func(context.Context) { s.acceptLoop() })
	}()
	return nil
}

func (s *Server) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		s.connMu.Lock()
		if s.draining.Load() {
			s.connMu.Unlock()
			_ = nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			pprof.Do(context.Background(), pprof.Labels("gstm", "server-conn"),
				func(context.Context) { s.serveConn(nc) })
		}()
	}
}

// conn is a client connection's socket side. Its reader writes a read
// burst's replies in one Write when the burst ends; a reply outside any
// burst — OpInfo, watches, drain-time refusals — writes its own frame at
// once (DESIGN.md "Reply coalescing"). wmu orders the two: watch goroutines
// write concurrently with the reader.
type conn struct {
	nc  net.Conn
	wmu sync.Mutex
	one [RespFrameLen]byte // an immediate reply's frame; guarded by wmu
}

// reply writes r alone, at once.
func (c *conn) reply(r Response) {
	c.wmu.Lock()
	_, _ = c.nc.Write(AppendResponse(c.one[:0], r)) // write errors surface as reader EOF/close
	c.wmu.Unlock()
}

// write sends p, a burst's replies, in one Write.
func (c *conn) write(p []byte) {
	if len(p) == 0 {
		return
	}
	c.wmu.Lock()
	_, _ = c.nc.Write(p)
	c.wmu.Unlock()
}

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{nc: nc}
	// home is the connection's thread slot for its life: every chunk it
	// sends runs as that STM thread (DESIGN.md "Dispatch").
	home := s.workers[int(s.rr.Add(1))%len(s.workers)]
	// inBurst is set while the reader has a burst open: requests it admitted
	// since it last had to wait for input. The burst holds an inflight slot,
	// so a drain waits until its replies are written. out is where the
	// burst's replies collect before that one Write.
	var inBurst bool
	var out []byte
	// pend collects the burst's data requests; dec0 is where the decode
	// phase of those not yet run starts: the return of the read that
	// delivered them, or the previous chunk's run.
	var pend pending
	var dec0 int64
	// open makes sure a burst is open for request id. False means the server
	// is draining (draining is set under connMu: this Add is ordered before
	// the Wait) and the request has been answered with refusal.
	open := func(id uint32, refusal Status) bool {
		if !inBurst {
			s.connMu.Lock()
			if !s.draining.Load() {
				inBurst = true
				s.inflight.Add(1)
			}
			s.connMu.Unlock()
		}
		if !inBurst {
			c.reply(Response{ID: id, Status: refusal})
		}
		return inBurst
	}
	// flush runs the chunk decoded since the last run on the home slot,
	// stamped with the span stamps its tasks share. False means the server
	// stopped first: the chunk is dropped unrun, and the reader must stop.
	flush := func() bool {
		if pend.ran == len(pend.tasks) {
			return true
		}
		if s.stopped.Load() {
			return false
		}
		now := obs.Now()
		home.run(&pend, now, now-dec0)
		dec0 = obs.Now()
		return true
	}
	// release ends the burst: it runs the last chunk — nothing may wait for
	// a chunk to fill while the reader blocks — answers everything that ran
	// in one Write, and gives the burst's inflight slot back.
	release := func() {
		flush()
		if inBurst {
			out = s.answer(int(home.id), out[:0], &pend)
			c.write(out)
			s.inflight.Done()
			inBurst = false
		}
		pend.reset()
	}
	defer func() {
		release()
		s.connMu.Lock()
		delete(s.conns, nc)
		s.connMu.Unlock()
		_ = nc.Close()
	}()

	br := bufio.NewReaderSize(nc, 64*ReqFrameLen)
	var hdr [4]byte
	var payload [MaxFrame]byte
	for {
		// A read that can block ends the burst: what follows arrives in
		// another socket read.
		buffered := br.Buffered() >= len(hdr)
		if !buffered {
			release()
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return // EOF or forced close
		}
		// The span's decode phase starts here: the frame header has
		// arrived, so everything until the chunk runs is the server's own
		// work (payload read off the bufio buffer, decode, routing) — for
		// every frame the read delivered, up to the chunk's run.
		if !buffered {
			dec0 = obs.Now()
		}
		n := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
		if n == 0 || n > MaxFrame {
			return // stream out of sync: drop the connection
		}
		if br.Buffered() < int(n) {
			release()
		}
		if _, err := io.ReadFull(br, payload[:n]); err != nil {
			return
		}
		req, txn, err := pend.decode(payload[:n])
		if err != nil {
			return // undecodable: cannot trust framing anymore
		}

		switch req.Op {
		case OpInfo:
			c.reply(s.info(req))
		case OpWatch, OpWaitKey:
			// Long-polls bypass the slots: each gets its own goroutine that
			// parks inside a blocking transaction, so a thousand idle
			// watches occupy no slot. A watch arriving mid-drain is refused
			// before it can park. Its reply is not the burst's: a parked
			// watch must never hold another reply back.
			if !open(req.ID, StatusWouldBlock) {
				continue
			}
			s.inflight.Add(1)
			s.wg.Add(1)
			go func(req Request) {
				defer s.wg.Done()
				s.serveWatch(req, c)
			}(req)
		default:
			if !open(req.ID, StatusShutdown) {
				continue
			}
			pend.tasks = append(pend.tasks, task{req: req, txn: txn})
			if len(pend.tasks)-pend.ran == s.cfg.Batch && !flush() {
				return
			}
		}
	}
}

// answer settles the requests of pd that ran on slot worker, on the
// reader: it waits out each durability obligation (ackShard), demotes to
// StatusUnavailable the operations whose record never became durable — its
// batch's operations homed on that shard, or every transaction of its OpTxn
// batch, and nothing else in the segment — and appends every reply's frame
// to out, which it returns for the reader to write.
func (s *Server) answer(worker int, out []byte, pd *pending) []byte {
	for wi := range pd.waits {
		wt := &pd.waits[wi]
		sp := &wt.span
		if !wt.spanned {
			sp = nil // secondary wait of a cross-shard txn: span rides elsewhere
		}
		if s.ackShard(worker, wt.sh, wt.seq, nil, sp, wt.nops) {
			continue
		}
		for i := wt.lo; i < wt.hi; i++ {
			if t := &pd.tasks[i]; t.req.Op == wt.kind && (t.req.Op == OpTxn || s.router.HomeOf(t.req.Key) == wt.sh) {
				pd.results[i] = opResult{status: StatusUnavailable}
			}
		}
	}
	for i := range pd.tasks[:pd.ran] {
		r := &pd.results[i]
		out = AppendResponse(out, Response{ID: pd.tasks[i].req.ID, Status: r.status, Value: r.value})
	}
	return out
}

// info answers an OpInfo request; InfoShards is its one selector.
func (s *Server) info(req Request) Response {
	if InfoSelector(req.Key) != InfoShards {
		return Response{ID: req.ID, Status: StatusBadRequest}
	}
	return Response{ID: req.ID, Value: uint64(s.Shards())}
}

// ShardMode reports shard sh's serving mode, refining ModeGuided to
// ModeDegraded while that shard's watchdog holds guidance tripped.
func (s *Server) ShardMode(sh int) ServingMode {
	m := s.lcs[sh].currentMode()
	if m == ModeGuided && s.router.System(sh).Mode() == ModeDegraded {
		return ModeDegraded
	}
	return m
}

// Mode reports the aggregate serving mode. With one shard it is exactly
// that shard's mode. Across shards — which walk their lifecycles
// independently — the most transitional state wins: any shard still
// profiling or training makes the aggregate ModeProfiling/ModeTraining;
// otherwise a degraded shard reports ModeDegraded, any guided shard
// reports ModeGuided (a rejected neighbor keeps serving unguided without
// demoting the aggregate), then ModeRejected, then ModeUnguided.
func (s *Server) Mode() ServingMode {
	var seen [6]bool
	for sh := range s.lcs {
		m := s.ShardMode(sh)
		if int(m) < len(seen) {
			seen[m] = true
		}
	}
	for _, m := range [...]ServingMode{ModeProfiling, ModeTraining, ModeDegraded, ModeGuided, ModeRejected} {
		if seen[m] {
			return m
		}
	}
	return ModeUnguided
}

// Shutdown drains the server: the listener closes immediately, in-flight
// operations finish and their responses are written, then every connection
// is closed. A read burst that starts mid-drain is answered with
// StatusShutdown; one already open is served to its end. ctx bounds the
// drain; on expiry remaining work is abandoned and ctx.Err() returned.
func (s *Server) Shutdown(ctx context.Context) error {
	// The shards leave /metrics last: a scrape mid-drain still sees them.
	defer s.router.Close()
	s.connMu.Lock() // a reader that saw draining clear has its inflight slot
	s.draining.Store(true)
	s.connMu.Unlock()
	// Wake every parked watch before waiting on inflight: a long-poll whose
	// key never changes would otherwise hold the drain open forever.
	s.watchCancel()
	_ = s.ln.Close()

	drained := make(chan struct{})
	go func() { s.inflight.Wait(); close(drained) }()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.stopped.Store(true)
	s.connMu.Lock()
	for nc := range s.conns {
		_ = nc.Close()
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		err = errors.Join(err, fmt.Errorf("server: shutdown wait: %w", ctx.Err()))
	}
	// Once readers have exited (no new records), Close drains and fsyncs
	// everything staged, which is the clean-shutdown guarantee — every acked
	// record is on disk before the process exits. A reader still live past
	// ctx is released from any durability wait it is in.
	return errors.Join(err, s.closeWALs())
}

// closeWALs flushes and closes every shard's log (nil-safe, idempotent).
func (s *Server) closeWALs() error {
	var err error
	for _, l := range s.wals {
		if l != nil {
			err = errors.Join(err, l.Close())
		}
	}
	return err
}

// Close force-stops the server without draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
	return nil
}

// Crash force-stops the server the way SIGKILL would, for in-process
// kill-and-recover chaos tests: no drain, no final WAL fsync. Pending and
// in-flight operations are abandoned; each shard's log keeps exactly what
// was already written — which covers every acked record — and loses its
// staged buffer. The store's in-memory state is discarded with the Server.
func (s *Server) Crash() {
	s.draining.Store(true)
	s.watchCancel() // parked watch goroutines must exit before wg.Wait
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.stopped.Store(true)
	// Crash the logs before waiting: a reader's pending WaitAcked must be
	// released (with ErrCrashed) so it can exit; the operations it waits
	// for answer StatusUnavailable, never acked.
	for _, l := range s.wals {
		if l != nil {
			l.Crash()
		}
	}
	s.connMu.Lock()
	for nc := range s.conns {
		_ = nc.Close()
	}
	s.connMu.Unlock()
	// Each reader finishes the chunk it is running, drops what it had not
	// run, and ends its burst: the inflight count reads zero once they are
	// gone.
	s.wg.Wait()
	s.router.Close()
}
