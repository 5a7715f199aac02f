package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gstm"
	"gstm/internal/obs"
	"gstm/internal/shard"
	"gstm/internal/stmds"
	"gstm/internal/telemetry"
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

	// Workers sizes the execution pool. Worker i runs every one of its
	// transactions — batches and OpTxn multi-key transactions alike — as
	// gstm.ThreadID(i) on whichever shards its keys route to, so each
	// shard's profiled Thread State Automaton keeps the paper's thread
	// identity over live traffic.
	Workers int

	// Batch is the maximum number of queued same-site, disjoint-key
	// operations coalesced into one transaction (default 8; 1 disables
	// batching), and the most a connection reader hands a worker at once
	// (DESIGN.md "Dispatch"). A batch spanning several shards executes as
	// one transaction per shard (see DESIGN.md "Sharding").
	Batch int

	// Buckets sizes the hash table across all shards (default 4096); each
	// shard's partition gets Buckets/Shards of them.
	Buckets int

	// QueueDepth is the per-worker request queue depth (default 256),
	// counted in chunks of up to Batch requests each. Full queues apply
	// backpressure to connection readers.
	QueueDepth int

	// ProfileOps is how many committed operations one profiling slice
	// spans (default 2048); ProfileSlices is how many sliced traces are
	// collected before the model is trained (default 4). Together they are
	// the serving analogue of the paper's repeated profiling runs. Each
	// shard counts its own operations and walks the lifecycle at its own
	// pace.
	ProfileOps    int
	ProfileSlices int

	// MaxAttempts bounds attempts per batch transaction; exhaustion maps
	// to StatusBudget on every operation of that shard's sub-batch. 0 =
	// unlimited.
	MaxAttempts int

	// ForceGuidance installs the trained model even when the analyzer
	// rejects it (experiments and tests); otherwise rejection latches
	// ModeRejected on that shard and it keeps serving unguided.
	ForceGuidance bool

	// Tfactor and GateRetries tune guidance (zero = defaults); Watchdog,
	// when non-nil, arms the guidance watchdog on every hot-swapped gate.
	Tfactor     float64
	GateRetries int
	Watchdog    *gstm.WatchdogOptions

	// Unguided starts the server with every shard's lifecycle parked in
	// ModeUnguided instead of profiling toward guidance (CtlModeAuto can
	// still start it later).
	Unguided bool

	// Interleave is forwarded to gstm.Config (test machines).
	Interleave int

	// LockStripes is forwarded to every shard's gstm.Config: positive
	// selects the striped lock-table engine mode (versioned write-locks
	// live in a fixed cache-line-padded table per shard instead of one
	// word per location). Zero keeps per-location locks.
	LockStripes int

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

	// DiskFaults, when non-nil, is installed as every shard WAL's disk
	// fault hook (chaos tests).
	DiskFaults wal.DiskFaults

	// TraceSampleEvery is the variance observatory's retention sampling
	// rate: every Nth finished span is kept in its worker's ring (0 =
	// obs.DefaultSampleEvery; 1 keeps every span — tests). Aggregation and
	// the K-slowest tail reservoir see every span regardless.
	TraceSampleEvery int
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
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
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

	workers []*worker
	rr      atomic.Uint32 // round-robin dispatch cursor, advanced once per chunk

	// wals[s] is shard s's write-ahead log (nil slice when durability is
	// off); warmed[s] records that recovery already installed a guided
	// model on shard s, so Start leaves its lifecycle alone.
	wals   []*wal.Log
	warmed []bool

	// acks hands committed durable batches to the acker goroutine, which
	// waits out their WAL obligations and writes the responses (see
	// acker.go). Nil when durability is off.
	acks    chan *ackItem
	ackDone chan struct{}
	ackOnce sync.Once
	ackPool sync.Pool

	// inflight tracks accepted data operations from enqueue to response
	// write; Shutdown drains it.
	inflight sync.WaitGroup
	draining atomic.Bool
	stop     chan struct{} // closed after drain: workers exit
	stopOnce sync.Once
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

	// liveKeys approximates the store's cardinality from acknowledged
	// creates minus deletes (exact under this protocol: every mutation is
	// acked exactly once).
	liveKeys   atomic.Int64
	batches    atomic.Uint64
	batchedOps atomic.Uint64

	// obs is the variance observatory: every batch sub-transaction records
	// a span (decode, queue wait, attempts with abort causes, commit
	// phases, WAL ack wait) into it. Always on; retention is sampled.
	obs *obs.Observatory

	// unregGauges unhooks the telemetry gauges Start registered (WAL queue
	// depth per shard, acker backlog); dropped once by dropGauges.
	unregGauges []func()
	gaugeOnce   sync.Once
}

// New builds a Server (not yet listening) with cfg.Shards independent
// gstm.Systems, each sized to cfg.Workers threads.
func New(cfg Config) *Server {
	cfg = cfg.normalize()
	s := &Server{
		cfg: cfg,
		router: shard.New(shard.Config{
			Shards:      cfg.Shards,
			Threads:     cfg.Workers,
			Interleave:  cfg.Interleave,
			LockStripes: cfg.LockStripes,
		}),
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
		obs: obs.New(obs.Config{
			Shards:      cfg.Shards,
			Workers:     cfg.threads(), // one ring per STM thread
			SampleEvery: cfg.TraceSampleEvery,
		}),
	}
	s.watchCtx, s.watchCancel = context.WithCancel(context.Background())
	if cfg.WALDir != "" {
		s.acks = make(chan *ackItem, 8*cfg.Workers)
		s.ackDone = make(chan struct{})
		// The acker lives from New to stopAcker, outside s.wg: it outlives
		// the workers (its producers) and must drain after they exit even
		// when Start itself fails.
		go pprof.Do(context.Background(), pprof.Labels("gstm", "server-acker"),
			func(context.Context) { s.ackLoop() })
	}
	buckets := cfg.Buckets / cfg.Shards
	if buckets < 16 {
		buckets = 16
	}
	for i := 0; i < cfg.Shards; i++ {
		s.stores = append(s.stores, stmds.NewHashTable[uint64](buckets))
		lc := &lifecycle{}
		lc.init(s.router.System(i), &s.cfg)
		s.lcs = append(s.lcs, lc)
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
// its write-ahead log, binds the listener, launches the worker pool and
// the accept loop, and starts every shard's guidance lifecycle
// (profiling, unless cfg.Unguided; shards guided-warmed by recovery keep
// their recovered model).
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
	for i, lc := range s.lcs {
		if s.warmed != nil && s.warmed[i] {
			continue // recovery already installed a guided model
		}
		if s.cfg.Unguided {
			lc.forceUnguided()
		} else {
			lc.startAuto(s.cfg.ProfileOps)
		}
	}
	s.registerGauges()
	for _, w := range s.workers {
		s.wg.Add(1)
		go func(w *worker) {
			defer s.wg.Done()
			pprof.Do(context.Background(),
				pprof.Labels("gstm", "server-worker", "worker", strconv.Itoa(int(w.id))),
				func(context.Context) { w.loop() })
		}(w)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		pprof.Do(context.Background(), pprof.Labels("gstm", "server-accept"),
			func(context.Context) { s.acceptLoop() })
	}()
	return nil
}

// registerGauges hooks the server's point-in-time depths into the
// process-wide telemetry registry: each shard WAL's unflushed queue depth
// and the acker's backlog of durable batches awaiting their flush. They
// appear on /metrics until dropGauges (Shutdown/Crash) unhooks them.
func (s *Server) registerGauges() {
	label := func(i int) string {
		if s.cfg.Shards > 1 {
			return "shard" + strconv.Itoa(i)
		}
		return "shard"
	}
	for i, l := range s.wals {
		if l == nil {
			continue
		}
		l := l
		s.unregGauges = append(s.unregGauges, telemetry.RegisterGauge(
			"gstm_wal_queue_depth", label(i),
			func() float64 { return float64(l.QueueDepth()) }))
	}
	if s.acks != nil {
		s.unregGauges = append(s.unregGauges, telemetry.RegisterGauge(
			"gstm_acker_backlog", "server",
			func() float64 { return float64(len(s.acks)) }))
	}
}

// dropGauges unhooks everything registerGauges registered; idempotent, so
// both Shutdown and Crash can call it.
func (s *Server) dropGauges() {
	s.gaugeOnce.Do(func() {
		for _, u := range s.unregGauges {
			u()
		}
		s.unregGauges = nil
	})
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
		go func() { defer s.wg.Done(); s.serveConn(nc) }()
	}
}

// conn is a client connection's reply side, the only path a response takes
// to the socket: frames collect in out and go down in one Write when the
// burst they belong to is settled (DESIGN.md "Reply coalescing").
type conn struct {
	nc  net.Conn
	wmu sync.Mutex
	out []byte // frames not yet written; guarded by wmu
}

// burst counts the replies still owed to the requests one socket read
// delivered, plus one for the reader while it is still decoding that read.
// Each count is settled exactly once; the last writes the buffer.
type burst struct{ n atomic.Int32 }

var burstPool = sync.Pool{New: func() any { return new(burst) }}

// openBurst returns a burst holding the reader's count. A recycled record
// was put back at zero, so Add keeps the count exact.
func openBurst() *burst {
	b := burstPool.Get().(*burst)
	b.n.Add(1)
	return b
}

// reply buffers r and settles its count on b. Replies outside any burst —
// control, watches, drain-time refusals — pass nil and flush at once.
func (c *conn) reply(r Response, b *burst) {
	c.wmu.Lock()
	c.out = AppendResponse(c.out, r)
	c.wmu.Unlock()
	c.settle(b)
}

// settle drops one count of b and, if it was the last (or b is nil), writes
// everything buffered.
func (c *conn) settle(b *burst) {
	if b != nil {
		if b.n.Add(-1) != 0 {
			return
		}
		burstPool.Put(b)
	}
	c.wmu.Lock()
	if len(c.out) > 0 {
		_, _ = c.nc.Write(c.out) // write errors surface as reader EOF/close
		c.out = c.out[:0]
	}
	c.wmu.Unlock()
}

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{nc: nc}
	// cur is the reader's open burst: what it admitted since it last had to
	// wait for input. The reader's count on it comes with an inflight slot,
	// so a drain neither closes the connection over replies only release
	// would flush nor sees a hand-off's inflight.Add start from zero.
	var cur *burst
	// pend collects the burst's data requests for the next hand-off; dec0 is
	// where their decode phase starts: the return of the read that delivered
	// them, or the previous hand-off.
	var pend *chunk
	var dec0 time.Time
	// open makes sure a burst is open for request id. False means the server
	// is draining (draining is set under connMu: this Add is ordered before
	// the Wait) and the request has been answered with refusal.
	open := func(id uint32, refusal Status) bool {
		if cur == nil {
			s.connMu.Lock()
			if !s.draining.Load() {
				cur = openBurst()
				s.inflight.Add(1)
			}
			s.connMu.Unlock()
		}
		if cur == nil {
			c.reply(Response{ID: id, Status: refusal}, nil)
		}
		return cur != nil
	}
	// flush hands pend to the next worker: the one send onto an execution
	// queue. It takes the chunk's inflight slots and counts on cur, and
	// stamps its tasks with the span stamps they share. False means the
	// server stopped first and the chunk will never run.
	flush := func() bool {
		ch := pend
		if ch == nil {
			return true
		}
		pend = nil
		s.inflight.Add(len(ch.tasks))
		cur.n.Add(int32(len(ch.tasks)))
		now := time.Now()
		enq, decNs := now.UnixNano(), now.Sub(dec0).Nanoseconds()
		dec0 = now
		for i := range ch.tasks {
			ch.tasks[i].enq, ch.tasks[i].decNs = enq, decNs
		}
		select {
		case s.workers[int(s.rr.Add(1))%len(s.workers)].queue <- ch:
			return true
		case <-s.stop:
			s.abandon(ch.tasks)
			return false
		}
	}
	// release ends the burst. The flush comes first: pend's replies settle on
	// cur, and nothing may wait for a chunk to fill while the reader blocks.
	release := func() {
		flush()
		if cur != nil {
			c.settle(cur)
			s.inflight.Done()
			cur = nil
		}
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
		// arrived, so everything until the hand-off is the server's own work
		// (payload read off the bufio buffer, decode, routing) — for every
		// frame the read delivered, up to the chunk's hand-off.
		if !buffered {
			dec0 = time.Now()
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
		var req Request
		var body *txnBody
		var err error
		if Op(payload[0]&^TraceBit) == OpTxn {
			// The protocol's only variable-length request: its sub-ops must
			// outlive this reusable payload buffer, so they go into a pooled
			// body that the worker running the transaction puts back.
			body = txnPool.Get().(*txnBody)
			req, body.ops, err = DecodeTxnRequest(payload[:n], body.ops[:0])
		} else {
			req, err = DecodeRequest(payload[:n])
		}
		if err != nil {
			return // undecodable: cannot trust framing anymore
		}

		switch req.Op {
		case OpCtl, OpInfo:
			c.reply(s.handleControl(req), nil)
		case OpWatch, OpWaitKey:
			// Long-polls bypass the worker queue: each gets its own
			// goroutine that parks inside a blocking transaction, so a
			// thousand idle watches occupy zero workers. A watch arriving
			// mid-drain is refused before it can park. It takes no count on
			// the burst: a parked watch must never hold another reply back.
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
			if pend == nil {
				pend = chunkPool.Get().(*chunk)
			}
			pend.tasks = append(pend.tasks, task{req: req, c: c, b: cur, txn: body})
			if len(pend.tasks) == s.cfg.Batch && !flush() {
				return
			}
		}
	}
}

// abandon gives back the inflight slots and burst counts of handed-off
// tasks that will never run (the server stopped first).
func (s *Server) abandon(tasks []task) {
	for i := range tasks {
		tasks[i].c.settle(tasks[i].b)
		s.inflight.Done()
	}
}

// handleControl serves the non-transactional control plane. Mode commands
// fan out to every shard's lifecycle; per-shard selectors take the shard
// index in Arg.
func (s *Server) handleControl(req Request) Response {
	resp := Response{ID: req.ID}
	switch req.Op {
	case OpCtl:
		switch CtlCommand(req.Key) {
		case CtlModeUnguided:
			for _, lc := range s.lcs {
				lc.forceUnguided()
			}
		case CtlModeAuto:
			ops := int(req.Arg)
			if ops <= 0 {
				ops = s.cfg.ProfileOps
			}
			for _, lc := range s.lcs {
				lc.startAuto(ops)
			}
		case CtlModeGuided:
			any := false
			for _, lc := range s.lcs {
				if lc.reinstallGuided() {
					any = true
				}
			}
			if !any {
				resp.Status = StatusUnguidable
			}
		case CtlShardReject:
			sh := int(req.Arg)
			if sh < 0 || sh >= len(s.lcs) {
				resp.Status = StatusBadRequest
				break
			}
			s.lcs[sh].forceReject("forced by CtlShardReject")
		case CtlReset:
			s.router.ResetStats()
			s.batches.Store(0)
			s.batchedOps.Store(0)
		default:
			resp.Status = StatusBadRequest
		}
	case OpInfo:
		switch InfoSelector(req.Key) {
		case InfoCommits:
			c, _ := s.router.Stats()
			resp.Value = c
		case InfoAborts:
			_, a := s.router.Stats()
			resp.Value = a
		case InfoMode:
			resp.Value = uint64(s.Mode())
		case InfoBatches:
			resp.Value = s.batches.Load()
		case InfoBatchedOps:
			resp.Value = s.batchedOps.Load()
		case InfoKeys:
			resp.Value = uint64(s.liveKeys.Load())
		case InfoShards:
			resp.Value = uint64(s.Shards())
		case InfoShardMode:
			sh := int(req.Arg)
			if sh < 0 || sh >= len(s.lcs) {
				resp.Status = StatusBadRequest
				break
			}
			resp.Value = uint64(s.ShardMode(sh))
		case InfoShardCommits:
			sh := int(req.Arg)
			if sh < 0 || sh >= len(s.lcs) {
				resp.Status = StatusBadRequest
				break
			}
			c, _ := s.router.System(sh).Stats()
			resp.Value = c
		case InfoShardAborts:
			sh := int(req.Arg)
			if sh < 0 || sh >= len(s.lcs) {
				resp.Status = StatusBadRequest
				break
			}
			_, a := s.router.System(sh).Stats()
			resp.Value = a
		default:
			resp.Status = StatusBadRequest
		}
	}
	return resp
}

// ShardMode reports shard sh's serving mode, refining ModeGuided to
// ModeDegraded while that shard's watchdog holds guidance tripped.
func (s *Server) ShardMode(sh int) ServingMode {
	m := s.lcs[sh].currentMode()
	if m == ModeGuided && s.router.System(sh).Health().Degraded() {
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

// RejectReason returns the first shard's analyzer reason when a lifecycle
// latched ModeRejected ("" when none did).
func (s *Server) RejectReason() string {
	for _, lc := range s.lcs {
		if r := lc.rejectReason(); r != "" {
			return r
		}
	}
	return ""
}

// Shutdown drains the server: the listener closes immediately, queued and
// in-flight operations finish and their responses are written, then the
// workers stop and every connection is closed. A read burst that starts
// mid-drain is answered with StatusShutdown; one already open is served to
// its end. ctx bounds the drain; on expiry remaining work is abandoned and
// ctx.Err() returned.
func (s *Server) Shutdown(ctx context.Context) error {
	// The shards leave /metrics last: a scrape mid-drain still sees them.
	defer s.router.Close()
	s.connMu.Lock() // a reader that saw draining clear has its inflight slot
	s.draining.Store(true)
	s.connMu.Unlock()
	// Wake every parked watch before waiting on inflight: a long-poll whose
	// key never changes would otherwise hold the drain open forever.
	s.watchCancel()
	s.dropGauges()
	_ = s.ln.Close()

	drained := make(chan struct{})
	go func() { s.inflight.Wait(); close(drained) }()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.stopOnce.Do(func() { close(s.stop) })
	s.connMu.Lock()
	for nc := range s.conns {
		_ = nc.Close()
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		// Workers have exited (no new records, no new ack items) and the
		// drain above already saw every pending ack written, so the acker
		// stops immediately; then Close drains and fsyncs everything
		// staged, which is the clean-shutdown guarantee — every acked
		// record is on disk before the process exits.
		s.stopAcker()
		return errors.Join(err, s.closeWALs())
	case <-ctx.Done():
		// Abandoning the drain: workers may still be live, so the acks
		// channel cannot be closed safely; the acker is left to die with
		// the process. Closing the WALs releases anything it still waits on.
		return errors.Join(err, s.closeWALs(), fmt.Errorf("server: shutdown wait: %w", ctx.Err()))
	}
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
// kill-and-recover chaos tests: no drain, no final WAL fsync. Queued and
// in-flight operations are abandoned; each shard's log keeps exactly what
// was already written — which covers every acked record — and loses its
// staged buffer. The store's in-memory state is discarded with the Server.
func (s *Server) Crash() {
	s.draining.Store(true)
	s.watchCancel() // parked watch goroutines must exit before wg.Wait
	s.dropGauges()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.stopOnce.Do(func() { close(s.stop) })
	// Crash the logs before waiting: the acker's pending WaitAcked calls
	// must be released (with ErrCrashed) so it keeps draining and no
	// worker stays blocked handing a batch off.
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
	s.wg.Wait()
	// Readers and workers are gone: give back what they never batched — the
	// rest of the chunk under each cursor and every chunk still queued — so
	// the inflight count reads zero once the acker has drained too.
	for _, w := range s.workers {
		if w.in != nil {
			s.abandon(w.in.tasks[w.pos:])
		}
		for len(w.queue) > 0 {
			s.abandon((<-w.queue).tasks)
		}
	}
	s.stopAcker()
	s.router.Close()
}
