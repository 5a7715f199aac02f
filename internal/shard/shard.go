// Package shard partitions a transactional keyspace across independent
// STM Systems. Each shard is a full gstm.System — its own TL2 runtime,
// private version clock, telemetry registration and guidance lifecycle —
// so shards never contend on a clock cache line, a lock table, or a
// commit-sequence slot, and one shard's rejected model never holds back a
// neighbor's hot-swap.
//
// Routing is static: a key's home shard is a splittable-hash of the key
// modulo the shard count, fixed at startup. Transactions whose footprint
// lives on one shard run untouched on that shard's System; multi-key
// batches are scatter-gathered — split into per-shard sub-transactions
// executed in ascending shard order, each atomic on its own shard.
// A Plan batch is therefore NOT atomic as a whole: shard i's
// sub-transaction can commit while shard j's fails. Callers that need
// per-operation results (the serving layer does) read per-shard errors
// back from the Plan.
//
// When whole-batch atomicity is required, RunMulti runs one transaction
// spanning several shards and commits it on all of them or none: every
// participant's write locks are taken and every read set validated
// before any shard publishes, and all participants publish at one
// exchanged write version (see DESIGN.md, "Cross-shard commit").
// Single-shard traffic through Run/Plan never pays for it.
package shard

import (
	"context"
	"fmt"
	"sync"

	"gstm"
)

// Config parameterizes a Router.
type Config struct {
	// Shards is the number of independent Systems the keyspace is split
	// across (default 1). Fixed for the Router's lifetime: rerouting live
	// keys would need cross-shard transactions, which the design excludes.
	Shards int

	// Threads sizes every shard's System. Workers address the same
	// ThreadID on whichever shard a key routes to, so the per-shard
	// Thread State Automata keep the paper's thread identity.
	Threads int

	// Interleave is forwarded to each shard's gstm.Config.
	Interleave int

	// LabelPrefix names the shards' telemetry registrations:
	// "<prefix><i>" (default prefix "shard"). With a single shard the
	// prefix is used bare, so an unsharded deployment keeps its label.
	LabelPrefix string

	// LockStripes is forwarded to each shard's gstm.Config: positive
	// selects the striped lock-table engine mode per shard (each shard
	// gets its own table, so striping never couples shards). Zero keeps
	// per-location locks.
	LockStripes int
}

func (cfg Config) normalize() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.LabelPrefix == "" {
		cfg.LabelPrefix = "shard"
	}
	return cfg
}

// Router owns the shard Systems and routes keys to them.
type Router struct {
	cfg     Config
	systems []*gstm.System
}

// New builds a Router with cfg.Shards independent Systems. Each shard
// gets a private version clock when there is more than one shard;
// a single-shard router behaves exactly like a bare System.
func New(cfg Config) *Router {
	cfg = cfg.normalize()
	r := &Router{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		label := cfg.LabelPrefix
		if cfg.Shards > 1 {
			label = fmt.Sprintf("%s%d", cfg.LabelPrefix, i)
		}
		r.systems = append(r.systems, gstm.NewSystem(gstm.Config{
			Threads:      cfg.Threads,
			Interleave:   cfg.Interleave,
			Label:        label,
			PrivateClock: cfg.Shards > 1,
			LockStripes:  cfg.LockStripes,
		}))
	}
	return r
}

// NewRouting returns a routing-only Router: it answers HomeOf and Shards
// for an n-shard split without building any shard Systems, so clients
// (the load generator) can attribute traffic by home shard. Calling Run,
// RunMulti, System or NewPlan on a routing-only Router panics.
func NewRouting(n int) *Router {
	return &Router{cfg: Config{Shards: n}.normalize()}
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.cfg.Shards }

// System returns shard i's System (per-shard guidance, profiling,
// telemetry and health go through it).
func (r *Router) System(i int) *gstm.System { return r.systems[i] }

// Close closes every shard's System (see gstm.System.Close). Idempotent.
func (r *Router) Close() {
	for _, sys := range r.systems {
		sys.Close()
	}
}

// mix is the splitmix64 finalizer: an invertible avalanche so dense or
// striding key patterns still spread across shards.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HomeOf returns key's home shard — the routing rule, deterministic for
// the Router's lifetime: same key, same shard. It replaces the pre-v1
// package-level HomeOf(key, n); callers without a real Router get one
// from NewRouting.
func (r *Router) HomeOf(key uint64) int {
	if n := r.cfg.Shards; n > 1 {
		return int(mix(key) % uint64(n))
	}
	return 0
}

// Run executes one transaction on shard s — the single-shard fast path,
// identical to calling the shard System's Run directly.
func (r *Router) Run(ctx context.Context, s int, thread gstm.ThreadID, txn gstm.TxnID, fn func(tx *gstm.Tx) error, opts ...gstm.TxOption) error {
	return r.systems[s].Run(ctx, thread, txn, fn, opts...)
}

// Stats sums commit/abort counters across shards.
func (r *Router) Stats() (commits, aborts uint64) {
	for _, sys := range r.systems {
		c, a := sys.Stats()
		commits += c
		aborts += a
	}
	return commits, aborts
}

// ResetStats resets every shard's counters.
func (r *Router) ResetStats() {
	for _, sys := range r.systems {
		sys.ResetStats()
	}
}

// Plan is a reusable scatter-gather of one multi-key batch: item indices
// grouped by home shard, each group preserving the batch's relative
// order. A worker keeps one Plan and rebuilds it per batch; steady-state
// reuse allocates nothing.
type Plan struct {
	r      *Router
	groups [][]int // groups[s]: indices of items homed on shard s
	errs   []error // errs[s]: shard s's sub-transaction outcome
	active []int   // shards with non-empty groups, ascending
}

// NewPlan returns an empty Plan bound to the Router.
func (r *Router) NewPlan() *Plan {
	n := r.Shards()
	p := &Plan{r: r, groups: make([][]int, n), errs: make([]error, n), active: make([]int, 0, n)}
	for s := range p.groups {
		p.groups[s] = make([]int, 0, 8)
	}
	return p
}

// Build partitions items 0..n-1 by the home shard of key(i).
func (p *Plan) Build(n int, key func(i int) uint64) {
	for _, s := range p.active {
		p.groups[s] = p.groups[s][:0]
		p.errs[s] = nil
	}
	p.active = p.active[:0]
	for i := 0; i < n; i++ {
		s := p.r.HomeOf(key(i))
		if len(p.groups[s]) == 0 {
			p.active = append(p.active, s)
		}
		p.groups[s] = append(p.groups[s], i)
	}
	// Ascending shard order keeps sub-transaction execution deterministic
	// for a given batch. Insertion sort: active is at most Shards long and
	// nearly sorted for hash-spread batches.
	for i := 1; i < len(p.active); i++ {
		for j := i; j > 0 && p.active[j] < p.active[j-1]; j-- {
			p.active[j], p.active[j-1] = p.active[j-1], p.active[j]
		}
	}
}

// Active returns the shards this batch touches, ascending. Valid until
// the next Build.
func (p *Plan) Active() []int { return p.active }

// Group returns the batch indices homed on shard s, in batch order.
func (p *Plan) Group(s int) []int { return p.groups[s] }

// Err returns shard s's sub-transaction error from the last Run (nil
// when it committed or the batch didn't touch s).
func (p *Plan) Err(s int) error { return p.errs[s] }

// PlanOption configures one Plan.Run call, mirroring the TxOption style
// of gstm.System.Run.
type PlanOption func(*planSettings)

type planSettings struct {
	opts    []gstm.TxOption
	optsFor func(s int) []gstm.TxOption
}

// WithTxOptions applies the same transaction options to every shard's
// sub-transaction.
func WithTxOptions(opts ...gstm.TxOption) PlanOption {
	return func(ps *planSettings) { ps.opts = opts }
}

// WithShardOptions supplies per-shard transaction options: optsFor(s) is
// called once per active shard and its slice is not retained, letting a
// caller attach shard-specific state — the serving layer threads one
// variance-observatory span per shard sub-transaction this way. When
// combined with WithTxOptions, the shared options apply first and
// optsFor(s)'s after, so per-shard options win on conflict.
func WithShardOptions(optsFor func(s int) []gstm.TxOption) PlanOption {
	return func(ps *planSettings) { ps.optsFor = optsFor }
}

// Run executes the planned batch: one transaction per active shard,
// sequentially in ascending shard order. body runs inside shard s's
// transaction and sees the indices homed there; it is re-run wholesale
// when that shard's transaction retries. Per-shard failures are recorded
// (see Err) and do not stop later shards — a Plan batch is per-shard
// atomic only; callers needing whole-batch atomicity use
// Router.RunMulti. Returns true when every active shard committed.
func (p *Plan) Run(ctx context.Context, thread gstm.ThreadID, txn gstm.TxnID, body func(tx *gstm.Tx, s int, idxs []int) error, opts ...PlanOption) bool {
	var set planSettings
	for _, o := range opts {
		o(&set)
	}
	ok := true
	for _, s := range p.active {
		s, idxs := s, p.groups[s]
		shardOpts := set.opts
		if set.optsFor != nil {
			if extra := set.optsFor(s); len(shardOpts) == 0 {
				shardOpts = extra
			} else if len(extra) > 0 {
				shardOpts = append(append([]gstm.TxOption(nil), shardOpts...), extra...)
			}
		}
		err := p.r.systems[s].Run(ctx, thread, txn, func(tx *gstm.Tx) error {
			return body(tx, s, idxs)
		}, shardOpts...)
		p.errs[s] = err
		if err != nil {
			ok = false
		}
	}
	return ok
}

// MultiTx is the cross-shard transaction handle RunMulti passes to its
// body: one sub-transaction per participant shard, all committing
// atomically. Valid only inside the body invocation it was passed to.
type MultiTx struct {
	shards []int      // participant shard indices, ascending
	txs    []*gstm.Tx // aligned with shards
}

// Shards returns the participant shard indices, ascending. The slice is
// shared; do not mutate it.
func (m *MultiTx) Shards() []int { return m.shards }

// On returns the sub-transaction bound to shard s. All transactional
// reads and writes of locations homed on s must go through it — touching
// a shard's Vars through another participant's Tx violates the per-shard
// clock ownership contract. Panics if s is not a participant.
func (m *MultiTx) On(s int) *gstm.Tx {
	for i, sh := range m.shards {
		if sh == s {
			return m.txs[i]
		}
	}
	panic(fmt.Sprintf("shard: MultiTx.On(%d): shard not a participant of this RunMulti", s))
}

// RunMulti executes body as ONE atomic transaction spanning the given
// shards: either every participant publishes its writes at a single
// exchanged write version, or none does (all-or-nothing, abort cause
// cross-shard-validation). shards may repeat and arrive in any order;
// they are deduplicated and sorted ascending, which is the global
// acquisition order that keeps concurrent cross-shard commits
// deadlock-free. body must route each location's access through
// m.On(home shard); it may be re-executed like any transaction body.
//
// A single-shard call commits through the plain single-shard commit, with
// no exchange. Options follow Run; blocking is unsupported (a tx.Retry
// returns gstm.ErrWouldBlock). m is valid only inside body: the router
// reuses it for later calls.
func (r *Router) RunMulti(ctx context.Context, shards []int, thread gstm.ThreadID, txn gstm.TxnID, body func(m *MultiTx) error, opts ...gstm.TxOption) error {
	c := multiCalls.Get().(*multiCall)
	c.m.shards = normalizeShards(c.m.shards[:0], shards, len(r.systems))
	for _, s := range c.m.shards {
		c.systems = append(c.systems, r.systems[s])
	}
	c.body = body
	err := gstm.RunMulti(ctx, c.systems, thread, txn, c.run, opts...)
	clear(c.systems)
	c.systems, c.body, c.m.txs = c.systems[:0], nil, nil
	multiCalls.Put(c)
	return err
}

// multiCall is RunMulti's pooled per-call scratch: the participant list,
// the body's handle and the closure binding them, so a cross-shard call
// allocates nothing beyond its redo boxes.
type multiCall struct {
	m       MultiTx
	systems []*gstm.System
	body    func(*MultiTx) error
	run     func(txs []*gstm.Tx) error
}

var multiCalls = sync.Pool{New: func() any {
	c := new(multiCall)
	c.run = func(txs []*gstm.Tx) error {
		c.m.txs = txs
		return c.body(&c.m)
	}
	return c
}}

// normalizeShards appends the participant list to norm deduplicated and
// sorted ascending, panicking on an out-of-range index (a programming
// error, like indexing System out of range).
func normalizeShards(norm, shards []int, n int) []int {
	for _, s := range shards {
		if s < 0 || s >= n {
			panic(fmt.Sprintf("shard: RunMulti shard %d out of range [0,%d)", s, n))
		}
		norm = append(norm, s)
	}
	// Insertion sort + dedup: participant lists are a handful of shards.
	for i := 1; i < len(norm); i++ {
		for j := i; j > 0 && norm[j] < norm[j-1]; j-- {
			norm[j], norm[j-1] = norm[j-1], norm[j]
		}
	}
	uniq := norm[:0]
	for i, s := range norm {
		if i == 0 || s != norm[i-1] {
			uniq = append(uniq, s)
		}
	}
	return uniq
}
