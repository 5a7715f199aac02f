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

	cur atomic.Pointer[stateBox] // current TTS; nil until first commit
	// latest is the pending commit's state as known so far: its pair and
	// the aborts reported against it yet. It becomes cur at the next commit,
	// so it runs one commit ahead; Check, which cannot wait for cur to catch
	// up, judges it. Nil until the first commit.
	latest atomic.Pointer[stateBox]

	mu      sync.Mutex
	pending pendingCommit
	hasPend bool
	// ring holds the aborts reported against the last abortWindow write
	// versions, slot wv%abortWindow (see TxAbort).
	ring [abortWindow]abortSlot
	// solo holds the box of each abort-free state {<p>}, indexed by p's
	// bit in the table's pair universe, so such a commit — most commits —
	// finds its box with no key built. The other states are interned in
	// boxes by key (at most maxInterned), built in keyBuf; a commit of a
	// state already seen allocates nothing either way.
	solo   []*stateBox
	keyBuf []byte
	boxes  map[string]*stateBox
	wd     watchdog

	// Gate decisions (decHeld, decPassed, decEscaped: delayed a thread,
	// let it through at once, forced it through after K retries), one
	// block per thread slot so that concurrent Checks do not contend on
	// one line.
	dec telemetry.Counters

	// tel, when set (WithTelemetry), receives per-state gate telemetry and
	// hold-time samples. Nil-safe: all record calls no-op without it.
	tel *telemetry.Metrics
	// boot is the box gate decisions book to before the first commit.
	boot stateBox
}

// stateBox is one automaton state, resolved once: its key, its row in the
// guide table and, from its first gate decision on, its telemetry cell.
// Arrive and Check look nothing up by key: they read the box and test its
// row.
type stateBox struct {
	key  trace.Key
	id   model.StateID
	cell atomic.Pointer[telemetry.GateCell]
}

// The Controller's decision counters.
const (
	decHeld = iota
	decPassed
	decEscaped
	numDecisions
)

// maxInterned bounds the boxes interned by key. A workload whose automaton
// outgrows it still tracks every state; the states past the bound just
// allocate their box each time they recur.
const maxInterned = 4096

// abortWindow is how many write versions back an abort still finds its
// commit's slot: an abort against a commit at least abortWindow versions
// older than the slot's live commit is dropped. The commit it names was
// finalized long ago, so no state it could join is still open.
const abortWindow = 256

// abortSlot is the pairs aborted by the commit at wv, in report order.
type abortSlot struct {
	wv      uint64
	aborted []txid.Packed
}

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
		solo:    make([]*stateBox, table.NumPairs()),
		dec:     telemetry.NewCounters(numDecisions),
		boxes:   make(map[string]*stateBox),
		boot:    stateBox{id: model.Unknown},
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
	return c.dec.Load(decPassed), c.dec.Load(decHeld), c.dec.Load(decEscaped)
}

// admits is the membership test behind Arrive and Check alike: whether pk
// lies in a high-probability destination of state b. Before the first
// state, and in a state the table does not know, everything is admitted
// (Section V progress rule).
func (c *Controller) admits(b *stateBox, pk txid.Packed) bool {
	return b == nil || c.table.Allowed(b.id, pk)
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
	var b *stateBox // the state judged last
	var t0 int64    // first-hold obs.Now stamp; hold time spans all re-checks
	for i := 0; ; i++ {
		b = c.cur.Load()
		if c.admits(b, pk) {
			break
		}
		if i >= c.retries {
			return c.count(b, p, telemetry.GateEscape, uint64(obs.Now()-t0))
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
		return c.count(b, p, telemetry.GateHold, uint64(obs.Now()-t0))
	}
	return c.count(b, p, telemetry.GatePass, 0)
}

// count books one gate decision for p, taken in state b (nil before the
// first commit), in GateStats and the per-state telemetry, and returns it.
func (c *Controller) count(b *stateBox, p txid.Pair, o telemetry.GateOutcome, holdNs uint64) telemetry.GateOutcome {
	d := decPassed
	switch o {
	case telemetry.GateHold:
		d = decHeld
	case telemetry.GateEscape:
		d = decEscaped
	}
	c.dec.Inc(uint64(p.Thread), d)
	if c.tel != nil {
		if b == nil {
			b = &c.boot
		}
		c.tel.GateArrival(c.cell(b), o, uint64(p.Thread), holdNs)
	}
	return o
}

// cell returns b's telemetry cell, resolving it on b's first gate decision
// — not at b's creation, so the telemetry's state cap fills in the order
// states are first judged, and a state never judged costs no label.
// Concurrent first decisions resolve the same cell.
func (c *Controller) cell(b *stateBox) *telemetry.GateCell {
	if cell := b.cell.Load(); cell != nil {
		return cell
	}
	label := "" // the bootstrap state's
	if st, err := trace.ParseKey(b.key); err == nil {
		label = st.String()
	}
	cell := c.tel.GateCell(label)
	b.cell.Store(cell)
	return cell
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
	b := c.latest.Load()
	o := telemetry.GatePass
	if !c.admits(b, p.Pack()) {
		o = telemetry.GateEscape
	}
	return c.count(b, p, o, 0)
}

// TxCommit implements tl2.EventSink: it finalizes the previous pending
// commit into the new current state, then makes this commit pending, and
// advances the watchdog's window.
func (c *Controller) TxCommit(p txid.Pair, wv uint64, aborts int) {
	c.mu.Lock()
	if c.hasPend {
		// latest already holds the pending commit with every abort
		// reported against it; its slot is done.
		if s := &c.ring[c.pending.wv%abortWindow]; s.wv == c.pending.wv {
			s.aborted = s.aborted[:0]
		}
		c.cur.Store(c.latest.Load())
	}
	c.pending = pendingCommit{wv: wv, pair: p.Pack()}
	c.hasPend = true
	var aborted []txid.Packed
	if s := &c.ring[wv%abortWindow]; s.wv == wv {
		aborted = s.aborted // reported before the commit itself
	}
	c.latest.Store(c.box(aborted, c.pending.pair))
	c.observeLocked(false)
	c.mu.Unlock()
}

// box returns the published box of state {aborted, commit}: the interned
// one when the state was seen before, else a new one, interned while there
// is room. Called with mu held; aborted is sorted in place.
func (c *Controller) box(aborted []txid.Packed, commit txid.Packed) *stateBox {
	if len(aborted) == 0 {
		if i, ok := c.table.PairIndex(commit); ok {
			if c.solo[i] == nil {
				c.solo[i] = c.newBox(trace.NewState(nil, commit).Key())
			}
			return c.solo[i]
		}
	}
	c.keyBuf = trace.AppendKey(c.keyBuf[:0], aborted, commit)
	if b, ok := c.boxes[string(c.keyBuf)]; ok {
		return b
	}
	b := c.newBox(trace.Key(c.keyBuf))
	if len(c.boxes) < maxInterned {
		c.boxes[string(b.key)] = b
	}
	return b
}

// newBox resolves the state keyed k against the table.
func (c *Controller) newBox(k trace.Key) *stateBox {
	return &stateBox{key: k, id: c.table.Lookup(k)}
}

// TxAbort implements tl2.EventSink: it records the abort against the
// commit that caused it so the state finalized for that commit includes it,
// and, when that commit is the pending one, republishes latest. It advances
// the watchdog's window like a commit.
//
// The abort goes to slot byWV%abortWindow. A slot still holding an older
// commit's aborts is taken over — that commit was finalized long ago — and
// an abort against a commit older than the slot's is dropped.
func (c *Controller) TxAbort(p txid.Pair, byWV uint64, known bool) {
	c.mu.Lock()
	if s := &c.ring[byWV%abortWindow]; s.wv <= byWV {
		if s.wv != byWV {
			s.wv, s.aborted = byWV, s.aborted[:0]
		}
		s.aborted = append(s.aborted, p.Pack())
		if c.hasPend && byWV == c.pending.wv {
			c.latest.Store(c.box(s.aborted, c.pending.pair))
		}
	}
	c.observeLocked(true)
	c.mu.Unlock()
}
