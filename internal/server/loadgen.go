package server

import (
	"bufio"
	"fmt"
	"io"
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
	// Window > 1 switches a connection from synchronous request/response
	// to pipelining: up to Window requests outstanding per connection.
	// Pipelining takes the network round-trip off the critical path, so
	// throughput measures the server's STM, not the wire — it is how a
	// load saturates the commit path. Per-op latency quantiles are
	// not recorded in this mode (a frame's wait time measures queue depth,
	// not service time).
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
	subOuts := make([]connOut, cfg.Subscribers)
	start := make(chan struct{})
	done := make(chan struct{})
	var wg, subWG sync.WaitGroup
	for i := 0; i < cfg.Subscribers; i++ {
		subWG.Add(1)
		go func(i int) {
			defer subWG.Done()
			subConn(cfg, i, &subOuts[i], start, done)
		}(i)
	}
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if cfg.Window > 1 {
				pipeConn(cfg, i, &outs[i], start)
			} else {
				syncConn(cfg, i, &outs[i], start)
			}
		}(i)
	}
	close(start)
	t0 := time.Now()
	wg.Wait()
	elapsed := time.Since(t0)
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

// connOut is one connection's contribution to a run.
type connOut struct {
	ops, errs uint64
	transfers uint64
	lats      []float64     // µs, synchronous mode only
	took      float64       // seconds, fixed-work mode
	shardOps  []uint64      // ops by home shard, when LoadConfig.Shards > 0
	routing   *shard.Router // routing-only, lazily built with shardOps
	err       error
}

func (o *connOut) noteShard(cfg LoadConfig, key uint64) {
	if cfg.Shards > 0 {
		if o.shardOps == nil {
			o.shardOps = make([]uint64, cfg.Shards)
			o.routing = shard.NewRouting(cfg.Shards)
		}
		o.shardOps[o.routing.HomeOf(key)]++
	}
}

// syncConn is the classic one-outstanding-request connection loop.
func syncConn(cfg LoadConfig, i int, out *connOut, start <-chan struct{}) {
	cl, err := Dial(cfg.Addr)
	if err != nil {
		out.err = err
		return
	}
	defer cl.Close()
	cl.SetTrace(cfg.Trace)
	r := xrand.NewThread(cfg.Seed, i)
	out.lats = make([]float64, 0, 1<<14)
	txn := make([]TxnOp, 2)
	<-start
	begin := time.Now()
	deadline := begin.Add(cfg.Duration)
	for {
		if cfg.OpsPerConn > 0 {
			if out.ops >= uint64(cfg.OpsPerConn) {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		var st Status
		var err error
		t0 := time.Now()
		if cfg.TransferPct > 0 && r.Intn(100) < cfg.TransferPct {
			from, to := transferKeys(r, cfg)
			out.noteShard(cfg, from)
			out.noteShard(cfg, to)
			out.transfers++
			txn[0] = TxnOp{Op: OpAdd, Key: from, Arg: ^uint64(0)} // -1
			txn[1] = TxnOp{Op: OpAdd, Key: to, Arg: 1}
			st, _, err = cl.Txn(txn)
		} else {
			op, key, arg := nextOp(r, cfg)
			out.noteShard(cfg, key)
			st, _, err = cl.Do(op, key, arg)
		}
		if err != nil {
			out.err = err
			return
		}
		out.lats = append(out.lats, float64(time.Since(t0).Nanoseconds())/1e3)
		out.ops++
		if st != StatusOK && st != StatusNotFound {
			out.errs++
		}
	}
	out.took = time.Since(begin).Seconds()
}

// pipeConn keeps up to cfg.Window requests in flight on one connection:
// fill the window with encoded frames in one write, block for one
// response, then opportunistically drain whatever else has arrived. In
// timed mode it stops issuing at the deadline and drains the window
// before returning, so every counted op has a received response.
func pipeConn(cfg LoadConfig, i int, out *connOut, start <-chan struct{}) {
	nc, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		out.err = err
		return
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 2*cfg.Window*RespFrameLen)
	r := xrand.NewThread(cfg.Seed, i)
	var buf []byte
	txn := make([]TxnOp, 2)
	frame := make([]byte, RespFrameLen)
	sent, recvd := 0, 0
	<-start
	begin := time.Now()
	deadline := begin.Add(cfg.Duration)
	recvOne := func() bool {
		if _, err := io.ReadFull(br, frame); err != nil {
			out.err = err
			return false
		}
		if resp, err := DecodeResponse(frame[4:]); err != nil {
			out.err = err
			return false
		} else if resp.Status != StatusOK && resp.Status != StatusNotFound {
			out.errs++
		}
		recvd++
		return true
	}
	for {
		issuing := true
		if cfg.OpsPerConn > 0 {
			if recvd >= cfg.OpsPerConn {
				break
			}
			issuing = sent < cfg.OpsPerConn
		} else if !time.Now().Before(deadline) {
			if sent == recvd {
				break
			}
			issuing = false
		}
		buf = buf[:0]
		for issuing && sent-recvd < cfg.Window {
			sent++
			if cfg.TransferPct > 0 && r.Intn(100) < cfg.TransferPct {
				from, to := transferKeys(r, cfg)
				out.noteShard(cfg, from)
				out.noteShard(cfg, to)
				out.transfers++
				txn[0] = TxnOp{Op: OpAdd, Key: from, Arg: ^uint64(0)} // -1
				txn[1] = TxnOp{Op: OpAdd, Key: to, Arg: 1}
				buf = AppendTxnRequest(buf, Request{ID: uint32(sent), Trace: cfg.Trace}, txn)
				continue
			}
			op, key, arg := nextOp(r, cfg)
			out.noteShard(cfg, key)
			buf = AppendRequest(buf, Request{Op: op, ID: uint32(sent), Key: key, Arg: arg, Trace: cfg.Trace})
		}
		if len(buf) > 0 {
			if _, err := nc.Write(buf); err != nil {
				out.err = err
				return
			}
		}
		if !recvOne() {
			return
		}
		for br.Buffered() >= RespFrameLen && recvd < sent {
			if !recvOne() {
				return
			}
		}
	}
	out.ops = uint64(recvd)
	out.took = time.Since(begin).Seconds()
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
