package server

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"gstm/internal/shard"
	"gstm/internal/stats"
	"gstm/internal/xrand"
)

// LoadConfig parameterizes one load-generation run against a server.
type LoadConfig struct {
	Addr     string
	Conns    int           // concurrent connections (one goroutine each)
	Duration time.Duration // fixed run length (timed mode; ignored when OpsPerConn > 0)
	// OpsPerConn switches to fixed-work mode: every connection performs
	// exactly this many operations and the run measures completion time.
	// Fixed work is how the paper measures execution variance — identical
	// input, repeated runs, dispersion of execution time.
	OpsPerConn int
	Keys       int     // key-space size
	Skew       float64 // >= 1; key = Keys * u^Skew, so larger = hotter head (1 = uniform)
	// Mix in percent; must sum to 100. The remainder after Get+Put+Del is
	// Add (the default workload is add-heavy on a skewed key space: the
	// contended read-modify-write pattern guidance pays off on).
	GetPct, PutPct, DelPct int
	// TransferPct diverts that percent of issued operations into two-key
	// transfers: each is one OpTxn atomically moving 1 from one skew-drawn
	// key to another (usually crossing shards), exercising the cross-shard
	// commit protocol. Transfers are zero-sum, so a run whose only
	// mutations are transfers conserves the keyspace's total balance (see
	// VerifyBalance). The remaining (100-TransferPct)% follow the
	// Get/Put/Del/Add mix.
	TransferPct int
	Seed        uint64
	// Window is how many requests a connection keeps outstanding (values
	// below 1 mean 1). At 1 a connection is synchronous request/response.
	// Above 1 it pipelines, which takes the network round-trip off the
	// critical path, so throughput measures the server's STM, not the wire:
	// it is how a load saturates the commit path. Latency is recorded for
	// every op at any window, from the request's encoding to its reply's
	// arrival. Above 1 that is client-observed latency behind the window,
	// which includes the wait behind the requests ahead of it on the
	// connection, not service time alone.
	Window int
	// Shards, when > 0, makes the run attribute each issued operation to
	// its home shard (the router's hash) and fill RunStats.ShardOps /
	// ShardSpreadPct — the client-side view of keyspace balance.
	Shards int
	// Trace sets the protocol trace-request bit on every issued operation,
	// forcing the server's variance observatory to retain a span for each
	// (the /debug/trace "forced" ring) regardless of its sampling rate.
	Trace bool
	// Subscribers adds that many long-poll connections alongside the load:
	// each picks one key from the skewed distribution and chains OpWatch
	// requests on it (last-seen value as the argument), so every response
	// is a real change notification delivered by a parked transaction
	// waking — the pub/sub pattern the blocking STM exists for. Their
	// wakeup counts land in RunStats.SubWakeups; they issue no ops of
	// their own and stop when the load connections finish.
	Subscribers int
}

func (cfg LoadConfig) normalize() LoadConfig {
	if cfg.Conns <= 0 {
		cfg.Conns = 16
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 128
	}
	if cfg.Skew < 1 {
		cfg.Skew = 5
	}
	if cfg.GetPct+cfg.PutPct+cfg.DelPct == 0 {
		cfg.GetPct, cfg.PutPct, cfg.DelPct = 10, 5, 5 // remainder 80% Add
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xC0FFEE
	}
	return cfg
}

// RunStats is the outcome of one load run.
type RunStats struct {
	Ops        uint64
	Errors     uint64
	Throughput float64
	P50us      float64
	P95us      float64
	P99us      float64
	// ConnSpreadPct is the relative dispersion of per-connection
	// completion times within this run (100 * std/mean), filled only in
	// fixed-work mode. Machine speed is common to all connections in a
	// run, so it divides out — this is the serving analogue of the
	// paper's per-thread execution-time dispersion.
	ConnSpreadPct float64
	// ShardOps counts issued operations by home shard and ShardSpreadPct
	// is their relative dispersion (100 * std/mean) — both filled only
	// when LoadConfig.Shards > 0.
	ShardOps       []uint64
	ShardSpreadPct float64
	// SubWakeups counts change notifications delivered to the long-poll
	// subscriber connections (LoadConfig.Subscribers): each is one parked
	// watch transaction woken by a commit on its key.
	SubWakeups uint64
	// Transfers counts the OpTxn two-key transfers issued
	// (LoadConfig.TransferPct); each is one op in Ops.
	Transfers uint64
}

// RunLoad drives one run — fixed-work when OpsPerConn > 0, otherwise
// fixed-duration — with Conns connections issuing the configured mix over
// the skewed key space, recording per-op latency.
func RunLoad(cfg LoadConfig) (RunStats, error) {
	cfg = cfg.normalize()

	outs := make([]connOut, cfg.Conns)
	sinks := make([]sink, cfg.Conns)
	for i := range outs {
		outs[i].lats = make([]float64, 0, 1<<14)
		if cfg.Shards > 0 {
			outs[i].shardOps = make([]uint64, cfg.Shards)
			outs[i].routing = shard.NewRouting(cfg.Shards)
		}
		sinks[i] = &outs[i]
	}
	subOuts := make([]connOut, cfg.Subscribers)
	start := make(chan struct{})
	done := make(chan struct{})
	var subWG sync.WaitGroup
	for i := 0; i < cfg.Subscribers; i++ {
		subWG.Add(1)
		go func(i int) {
			defer subWG.Done()
			subConn(cfg, i, &subOuts[i], start, done)
		}(i)
	}
	elapsed := runConns(cfg, sinks, start)
	close(done)
	subWG.Wait()

	var res RunStats
	var all, took []float64
	if cfg.Shards > 0 {
		res.ShardOps = make([]uint64, cfg.Shards)
	}
	for i := range outs {
		if outs[i].err != nil {
			return res, fmt.Errorf("conn %d: %w", i, outs[i].err)
		}
		res.Ops += outs[i].ops
		res.Errors += outs[i].errs
		res.Transfers += outs[i].transfers
		all = append(all, outs[i].lats...)
		took = append(took, outs[i].took)
		for s, n := range outs[i].shardOps {
			res.ShardOps[s] += n
		}
	}
	for i := range subOuts {
		if subOuts[i].err != nil {
			return res, fmt.Errorf("subscriber %d: %w", i, subOuts[i].err)
		}
		res.SubWakeups += subOuts[i].ops
	}
	res.Throughput = float64(res.Ops) / elapsed.Seconds()
	if cfg.OpsPerConn > 0 {
		if m := stats.Mean(took); m > 0 {
			res.ConnSpreadPct = 100 * stats.CoefficientOfVariation(took)
		}
	}
	if len(res.ShardOps) > 0 {
		per := make([]float64, len(res.ShardOps))
		for s, n := range res.ShardOps {
			per[s] = float64(n)
		}
		res.ShardSpreadPct = 100 * stats.CoefficientOfVariation(per)
	}
	sort.Float64s(all)
	res.P50us = stats.Percentile(all, 50)
	res.P95us = stats.Percentile(all, 95)
	res.P99us = stats.Percentile(all, 99)
	return res, nil
}

// sentReq is one request on the wire awaiting its reply. key is the op's
// key, or a transfer's from key (to is its other key); sent is when it was
// encoded, measured from the connection's start.
type sentReq struct {
	id      uint32
	xfer    bool
	key, to uint64
	sent    time.Duration
}

// sink takes one connection's outcomes: reply for each answered request,
// in request order, with the time since the connection's start; lost once
// if the connection fails, with the requests it left unanswered.
type sink interface {
	reply(p sentReq, st Status, now time.Duration)
	lost(outstanding []sentReq, err error)
}

// connOut is the stats sink: one connection's contribution to a run.
type connOut struct {
	ops, errs uint64
	transfers uint64
	lats      []float64     // µs
	took      float64       // seconds to the last reply, fixed-work mode
	shardOps  []uint64      // ops by home shard, when LoadConfig.Shards > 0
	routing   *shard.Router // routing-only, built with shardOps
	err       error
}

func (o *connOut) reply(p sentReq, st Status, now time.Duration) {
	o.ops++
	if st != StatusOK && st != StatusNotFound {
		o.errs++
	}
	o.lats = append(o.lats, float64(now-p.sent)/1e3)
	o.took = now.Seconds()
	if p.xfer {
		o.transfers++
		o.noteShard(p.to)
	}
	o.noteShard(p.key)
}

func (o *connOut) lost(_ []sentReq, err error) { o.err = err }

func (o *connOut) noteShard(key uint64) {
	if o.routing != nil {
		o.shardOps[o.routing.HomeOf(key)]++
	}
}

// runConns runs one connection loop per sink, releases them together by
// closing start, and returns the wall time until the last one finished.
func runConns(cfg LoadConfig, sinks []sink, start chan struct{}) time.Duration {
	var wg sync.WaitGroup
	for i, s := range sinks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			connLoop(cfg, i, s, start)
		}()
	}
	close(start)
	t0 := time.Now()
	wg.Wait()
	return time.Since(t0)
}

// connLoop is the one load-connection loop. It keeps up to cfg.Window
// requests outstanding in a FIFO: it tops the window up with one write,
// blocks for one reply, then takes whatever other replies have arrived.
// Replies to data ops come back in request order (DESIGN.md "Reply
// coalescing"), so each must carry the FIFO head's ID; a reply that does
// not fails the connection. Issuing stops after OpsPerConn requests, or
// at the deadline in timed mode, and the loop drains the window before
// returning, so every issued request is answered or handed to s.lost.
func connLoop(cfg LoadConfig, i int, s sink, start <-chan struct{}) {
	nc, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		s.lost(nil, err)
		return
	}
	defer nc.Close()
	window := max(cfg.Window, 1)
	br := bufio.NewReaderSize(nc, 2*window*RespFrameLen)
	r := xrand.NewThread(cfg.Seed, i)
	fifo := make([]sentReq, 0, window)
	frame := make([]byte, RespFrameLen)
	txn := make([]TxnOp, 2)
	var buf []byte
	issued := 0
	<-start
	begin := time.Now()
	for {
		buf = buf[:0]
		for len(fifo) < window {
			now := time.Since(begin)
			if cfg.OpsPerConn > 0 && issued == cfg.OpsPerConn || cfg.OpsPerConn <= 0 && now >= cfg.Duration {
				break
			}
			issued++
			p := sentReq{id: uint32(issued), sent: now}
			req := Request{ID: p.id, Trace: cfg.Trace}
			if cfg.TransferPct > 0 && r.Intn(100) < cfg.TransferPct {
				p.xfer = true
				p.key, p.to = transferKeys(r, cfg)
				txn[0] = TxnOp{Op: OpAdd, Key: p.key, Arg: ^uint64(0)} // -1
				txn[1] = TxnOp{Op: OpAdd, Key: p.to, Arg: 1}
				buf = AppendTxnRequest(buf, req, txn)
			} else {
				req.Op, req.Key, req.Arg = nextOp(r, cfg)
				p.key = req.Key
				buf = AppendRequest(buf, req)
			}
			fifo = append(fifo, p)
		}
		if len(fifo) == 0 {
			return
		}
		if len(buf) > 0 {
			if _, err := nc.Write(buf); err != nil {
				s.lost(fifo, err)
				return
			}
		}
		n := 0
		for n < len(fifo) && (n == 0 || br.Buffered() >= RespFrameLen) {
			resp, err := readResponse(br, frame)
			if err == nil && resp.ID != fifo[n].id {
				err = fmt.Errorf("reply id %d, want %d: replies out of request order", resp.ID, fifo[n].id)
			}
			if err != nil {
				s.lost(fifo[n:], err)
				return
			}
			s.reply(fifo[n], resp.Status, time.Since(begin))
			n++
		}
		fifo = fifo[:copy(fifo, fifo[n:])]
	}
}

// subConn chains long-poll watches on one skew-drawn key until the load
// connections finish. Each completed Watch is one real change delivery:
// the server-side transaction parked on the key's cells and a writer's
// commit woke it. The final park is broken by closing the connection —
// the server-side watch stays parked until a later commit or shutdown
// resolves it, which is the long-poll contract.
func subConn(cfg LoadConfig, i int, out *connOut, start, done <-chan struct{}) {
	cl, err := Dial(cfg.Addr)
	if err != nil {
		out.err = err
		return
	}
	defer cl.Close()
	cl.SetTrace(cfg.Trace)
	go func() { <-done; cl.Close() }() // unblock a parked watch at run end
	r := xrand.NewThread(cfg.Seed, 1<<20+i)
	key := uint64(float64(cfg.Keys-1) * math.Pow(r.Float64(), cfg.Skew))
	<-start
	var last uint64
	for {
		select {
		case <-done:
			return
		default:
		}
		v, err := cl.Watch(key, last)
		if err != nil {
			// A wire error after done is the expected close; anything else
			// (including a would-block refusal) just ends this subscriber —
			// the load run's outcome should not hinge on watch timing.
			return
		}
		last = v
		out.ops++
	}
}

// transferKeys draws a (from, to) pair of distinct skewed keys.
func transferKeys(r *xrand.Rand, cfg LoadConfig) (uint64, uint64) {
	from := skewKey(r, cfg)
	to := skewKey(r, cfg)
	if to == from {
		to = (from + 1) % uint64(cfg.Keys)
	}
	return from, to
}

// skewKey draws one key: Keys * u^Skew.
func skewKey(r *xrand.Rand, cfg LoadConfig) uint64 {
	return uint64(float64(cfg.Keys-1) * math.Pow(r.Float64(), cfg.Skew))
}

// nextOp draws one operation from the configured mix and key skew.
func nextOp(r *xrand.Rand, cfg LoadConfig) (Op, uint64, uint64) {
	key := skewKey(r, cfg)
	p := r.Intn(100)
	switch {
	case p < cfg.GetPct:
		return OpGet, key, 0
	case p < cfg.GetPct+cfg.PutPct:
		return OpPut, key, r.Uint64() >> 1
	case p < cfg.GetPct+cfg.PutPct+cfg.DelPct:
		return OpDel, key, 0
	default:
		return OpAdd, key, 1
	}
}

// VerifyBalance sums the signed values of keys [0, keys) on the server at
// addr. A keyspace whose only mutations were zero-sum transfers
// (TransferPct load with a Get-only residual mix) must total zero — the
// client-visible conservation check for cross-shard atomicity.
func VerifyBalance(addr string, keys int) (int64, error) {
	cl, err := Dial(addr)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	var sum int64
	for k := 0; k < keys; k++ {
		v, ok, err := cl.Get(uint64(k))
		if err != nil {
			return sum, err
		}
		if ok {
			sum += int64(v)
		}
	}
	return sum, nil
}
