// Package guide implements the paper's guided execution (Section V): a
// transaction-start gate that holds back threads whose (transaction,
// thread) pair does not participate in any high-probability destination
// state of the automaton's current state, re-checking up to K times before
// letting the thread proceed (the deadlock/progress escape hatch).
//
// A caller that owns a queue of work need not wait at all: it can ask the
// same membership test without blocking (Check) as it takes up each piece
// of work; internal/server's workers do this (DESIGN.md "Dispatch").
//
// The guide table is compiled once, from a model trained offline before the
// guided run (PAPER.md phases 1–4), and stays fixed while installed. The
// controller tracks the STM's current thread transactional state online: it
// observes the commit/abort event stream and finalizes each
// commit's state one commit late, so that aborts attributed to a commit —
// which are reported by the aborting threads shortly *after* the commit —
// have time to arrive before the state is published.
package guide

import (
	"sync"
	"sync/atomic"

	"gstm/internal/model"
	"gstm/internal/obs"
	"gstm/internal/telemetry"
	"gstm/internal/trace"
	"gstm/internal/txid"
	"gstm/internal/yield"
)

// DefaultGateRetries is the paper's k: how many times the gate re-checks a
// held-back thread before forcing progress.
const DefaultGateRetries = 16

// Controller implements tl2.Gate and tl2.EventSink. Install it as gate and
// sink on a runtime (SetGate/SetSink) to obtain guided execution, or as sink
// only when the caller asks Check itself. Armed WithWatchdog, it is also the
// watchdog's circuit breaker (watchdog.go): once tripped, Arrive and Check
// pass every pair uncounted.
type Controller struct {
	table   *model.GuideTable
	retries int
	armed   bool // WithWatchdog

	tripped atomic.Bool // read first on every Arrive and Check

	cur atomic.Pointer[stateBox] // current TTS key; nil until first commit
	// latest is the pending commit's state as known so far: its pair and
	// the aborts reported against it yet. It becomes cur at the next commit,
	// so it runs one commit ahead; Check, which cannot wait for cur to catch
	// up, judges it. Nil until the first commit.
	latest atomic.Pointer[stateBox]

	mu      sync.Mutex
	pending pendingCommit
	hasPend bool
	aborts  map[uint64][]txid.Packed // byWV → aborted pairs (recent window)
	seen    uint64                   // commits processed, for periodic pruning
	// keyBuf is the scratch buffer each published state's key is built in,
	// and boxes interns one box per distinct key (at most maxInterned), so
	// a commit of a state already seen allocates nothing.
	keyBuf []byte
	boxes  map[string]*stateBox
	wd     watchdog

	held    atomic.Uint64 // gate decisions that delayed a thread
	passed  atomic.Uint64 // gate decisions that let a thread through at once
	escaped atomic.Uint64 // gate decisions forced through after K retries

	// tel, when set (WithTelemetry), receives per-state gate telemetry and
	// hold-time samples. Nil-safe: all record calls no-op without it.
	tel *telemetry.Metrics
}

type stateBox struct{ key trace.Key }

// maxInterned bounds the interned state boxes. A workload whose automaton
// outgrows it still tracks every state; the states past the bound just
// allocate their box each time they recur.
const maxInterned = 4096

type pendingCommit struct {
	wv   uint64
	pair txid.Packed
}

// Option configures a Controller.
type Option func(*Controller)

// WithGateRetries overrides the paper's k.
func WithGateRetries(k int) Option {
	return func(c *Controller) {
		if k > 0 {
			c.retries = k
		}
	}
}

// WithTelemetry routes per-state gate telemetry (visits, holds, escapes,
// hold-time samples, watchdog trips) into m — typically the guided
// runtime's own Metrics so gate and engine telemetry land in one snapshot.
func WithTelemetry(m *telemetry.Metrics) Option {
	return func(c *Controller) { c.tel = m }
}

// NewController returns a Controller over a compiled guide table.
func NewController(table *model.GuideTable, opts ...Option) *Controller {
	c := &Controller{
		table:   table,
		retries: DefaultGateRetries,
		aborts:  make(map[uint64][]txid.Packed),
		boxes:   make(map[string]*stateBox),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// CurrentState returns the tracked current state key and whether any state
// has been observed yet.
func (c *Controller) CurrentState() (trace.Key, bool) {
	b := c.cur.Load()
	if b == nil {
		return "", false
	}
	return b.key, true
}

// GateStats reports how many gate arrivals passed immediately, were held at
// least once, and were forced through by the K-retry escape hatch.
func (c *Controller) GateStats() (passed, held, escaped uint64) {
	return c.passed.Load(), c.held.Load(), c.escaped.Load()
}

// admits is the membership test behind Arrive and Check alike: whether pk
// lies in a high-probability destination of state b. Before the first
// state, and in a state the table does not know, everything is admitted
// (Section V progress rule). It also returns the state it judged, for
// telemetry.
func (c *Controller) admits(b *stateBox, pk txid.Packed) (bool, trace.Key) {
	if b == nil {
		return true, "" // no state observed yet: execution has just begun
	}
	allowed, known := c.table.Allowed(b.key, pk)
	return allowed || !known, b.key
}

// Arrive implements the gate (tl2.Gate). A tripped controller lets every
// thread through uncounted. Otherwise Arrive blocks the calling thread for
// up to retries re-checks while its pair is outside every high-probability
// destination of the current state; an unknown current state, or exhausting
// the retries, lets the thread proceed (Section V progress rule).
func (c *Controller) Arrive(p txid.Pair) telemetry.GateOutcome {
	if c.tripped.Load() {
		return telemetry.GatePass
	}
	pk := p.Pack()
	heldOnce := false
	var stateKey string
	var t0 int64 // first-hold obs.Now stamp; hold time spans all re-checks
	for i := 0; ; i++ {
		ok, k := c.admits(c.cur.Load(), pk)
		stateKey = string(k)
		if ok {
			break
		}
		if i >= c.retries {
			return c.count(p, telemetry.GateEscape, stateKey, uint64(obs.Now()-t0))
		}
		if !heldOnce {
			t0 = obs.Now()
		}
		heldOnce = true
		// Step aside so a thread that *is* in the destination set can run
		// and change the current state; sleeping would over-hold (the OS
		// timer granularity dwarfs a transaction) and serialize the
		// program.
		yield.Hold(i)
	}
	if heldOnce {
		return c.count(p, telemetry.GateHold, stateKey, uint64(obs.Now()-t0))
	}
	return c.count(p, telemetry.GatePass, stateKey, 0)
}

// count books one gate decision for p, taken in state, in GateStats and
// the per-state telemetry, and returns it.
func (c *Controller) count(p txid.Pair, o telemetry.GateOutcome, state string, holdNs uint64) telemetry.GateOutcome {
	switch o {
	case telemetry.GateHold:
		c.held.Add(1)
	case telemetry.GateEscape:
		c.escaped.Add(1)
	default:
		c.passed.Add(1)
	}
	c.tel.GateArrival(state, o, uint64(p.Thread), holdNs)
	return o
}

// Check is the gate's membership test without the wait, for a caller that
// runs p whatever the answer (gstm's CheckDequeue): GatePass when p is
// admitted, GateEscape when it is not. It is booked like a gate decision
// with no hold time, so GateStats, the per-state gate telemetry and the
// watchdog's windows read the same on either path; an escape here means the
// model's destination sets missed the work, not that anything waited. As with
// Arrive, a tripped controller passes every pair uncounted.
//
// Arrive judges cur, the newest state whose aborts are all in, and a thread
// it holds re-checks once cur moves on. Check gets one look, so it judges
// latest, the commit p's transaction will actually follow: against cur it
// would ask which transaction follows the commit before that one, and on a
// pair of workers taking turns would refuse nearly every batch.
func (c *Controller) Check(p txid.Pair) telemetry.GateOutcome {
	if c.tripped.Load() {
		return telemetry.GatePass
	}
	o := telemetry.GatePass
	ok, k := c.admits(c.latest.Load(), p.Pack())
	if !ok {
		o = telemetry.GateEscape
	}
	return c.count(p, o, string(k), 0)
}

// TxCommit implements tl2.EventSink: it finalizes the previous pending
// commit into the new current state, then makes this commit pending, and
// advances the watchdog's window.
func (c *Controller) TxCommit(p txid.Pair, wv uint64, aborts int) {
	c.mu.Lock()
	if c.hasPend {
		// latest already holds the pending commit with every abort
		// reported against it.
		delete(c.aborts, c.pending.wv)
		c.cur.Store(c.latest.Load())
	}
	c.pending = pendingCommit{wv: wv, pair: p.Pack()}
	c.hasPend = true
	c.latest.Store(c.box(c.aborts[wv], c.pending.pair))
	c.seen++
	if c.seen%1024 == 0 {
		c.prune(wv)
	}
	c.observeLocked(false)
	c.mu.Unlock()
}

// box returns the published box of state {aborted, commit}: the interned
// one when the key was seen before, else a new one, interned while the
// table has room. Called with mu held; aborted is sorted in place.
func (c *Controller) box(aborted []txid.Packed, commit txid.Packed) *stateBox {
	c.keyBuf = trace.AppendKey(c.keyBuf[:0], aborted, commit)
	if b, ok := c.boxes[string(c.keyBuf)]; ok {
		return b
	}
	b := &stateBox{key: trace.Key(c.keyBuf)}
	if len(c.boxes) < maxInterned {
		c.boxes[string(b.key)] = b
	}
	return b
}

// TxAbort implements tl2.EventSink: it records the abort against the
// commit that caused it so the state finalized for that commit includes it,
// and, when that commit is the pending one, republishes latest. It advances
// the watchdog's window like a commit.
func (c *Controller) TxAbort(p txid.Pair, byWV uint64, known bool) {
	c.mu.Lock()
	c.aborts[byWV] = append(c.aborts[byWV], p.Pack())
	if c.hasPend && byWV == c.pending.wv {
		c.latest.Store(c.box(c.aborts[byWV], c.pending.pair))
	}
	c.observeLocked(true)
	c.mu.Unlock()
}

// prune drops abort records for commits far older than wv; their states
// have long been finalized. Called with mu held.
func (c *Controller) prune(wv uint64) {
	const window = 256
	for k := range c.aborts {
		if k+window < wv {
			delete(c.aborts, k)
		}
	}
}
