package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Retention sizes: the forced ring's capacity, how many slowest spans the
// tail reservoir keeps per window, and the reservoir's rotation period.
const (
	forcedRingSize = 256
	tailK          = 32
	tailWindow     = 2 * time.Second
)

// ring keeps the last forcedRingSize spans whose requests set the trace
// bit. Any worker may write it; a scraper copies the slots out under mu.
type ring struct {
	mu    sync.Mutex
	slots []Span
	next  int
	full  bool
}

func (r *ring) offer(sp *Span) {
	r.mu.Lock()
	r.slots[r.next] = *sp
	r.next++
	if r.next == len(r.slots) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// collect appends the retained spans to dst, oldest first: once the ring
// has wrapped, the oldest is the slot next overwrites.
func (r *ring) collect(dst []Span) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		dst = append(dst, r.slots[r.next:]...)
	}
	return append(dst, r.slots[:r.next]...)
}

// reservoir keeps the K slowest spans per rotation window (plus the
// previous window, so a scrape right after rotation still sees a tail).
// The floor of the current window's kept set is cached in an atomic so the
// overwhelmingly common case — a span faster than the current tail — is
// rejected with one load and no lock.
type reservoir struct {
	floor atomic.Uint32 // min TotalNs among cur when full; 0 otherwise

	mu      sync.Mutex
	started int64 // window start, unix nanos
	cur     []Span
	prev    []Span
}

func (t *reservoir) offer(sp *Span, now int64) {
	if sp.TotalNs <= t.floor.Load() {
		// Fast reject — but still rotate eventually even if all spans are
		// fast; rotation is also checked here via the lock-free clock read.
		if now-atomic.LoadInt64(&t.started) < int64(tailWindow) {
			return
		}
	}
	t.mu.Lock()
	if now-t.started >= int64(tailWindow) {
		t.prev = append(t.prev[:0], t.cur...)
		t.cur = t.cur[:0]
		atomic.StoreInt64(&t.started, now)
		t.floor.Store(0)
	}
	if sp.TotalNs > t.floor.Load() || len(t.cur) < tailK {
		if len(t.cur) < tailK {
			t.cur = append(t.cur, *sp)
		} else {
			// Replace the current minimum.
			min := 0
			for i := 1; i < len(t.cur); i++ {
				if t.cur[i].TotalNs < t.cur[min].TotalNs {
					min = i
				}
			}
			if t.cur[min].TotalNs < sp.TotalNs {
				t.cur[min] = *sp
			}
		}
		if len(t.cur) == tailK {
			min := t.cur[0].TotalNs
			for i := 1; i < len(t.cur); i++ {
				if t.cur[i].TotalNs < min {
					min = t.cur[i].TotalNs
				}
			}
			t.floor.Store(min)
		}
	}
	t.mu.Unlock()
}

func (t *reservoir) collect(dst []Span) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	dst = append(dst, t.cur...)
	return append(dst, t.prev...)
}

// Observatory is the process-wide span retention: a forced-trace ring,
// the K-slowest tail reservoir, and the per-shard per-phase aggregation,
// kept per (worker, shard) slot.
type Observatory struct {
	shards, workers int

	agg    []shardAgg // agg[worker*shards+shard]
	tail   reservoir
	forced ring
}

// New returns an Observatory for shards shards written by workers
// workers (each at least 1).
func New(shards, workers int) *Observatory {
	shards, workers = max(shards, 1), max(workers, 1)
	o := &Observatory{
		shards:  shards,
		workers: workers,
		agg:     make([]shardAgg, workers*shards),
	}
	o.forced.slots = make([]Span, forcedRingSize)
	o.tail.cur = make([]Span, 0, tailK)
	o.tail.prev = make([]Span, 0, tailK)
	return o
}

// Collect retains one finished span recorded by the given worker. It is
// allocation-free: retention copies the span by value into preallocated
// slots. The worker's own histograms take the span's phases, so workers
// aggregate without sharing a cache line. Nil-safe (a nil Observatory drops
// the span), so callers can keep one unconditional call site.
func (o *Observatory) Collect(worker int, sp *Span) {
	if o == nil || sp == nil {
		return
	}
	sh := int(sp.Shard)
	if sh >= o.shards {
		sh = o.shards - 1
	}
	if worker < 0 || worker >= o.workers {
		worker = 0
	}
	o.agg[worker*o.shards+sh].observeSpan(sp)
	if sp.Forced {
		o.forced.offer(sp)
	}
	now := sp.Begin + int64(sp.TotalNs)
	o.tail.offer(sp, now)
}

// Snapshot is the JSON shape served by /debug/trace.
type Snapshot struct {
	// Slowest is the tail reservoir (current + previous window), slowest
	// first.
	Slowest []SpanJSON `json:"slowest"`
	// Forced is the ring of spans whose requests set the protocol
	// trace-request bit, newest last.
	Forced []SpanJSON `json:"forced,omitempty"`
}

// SpanJSON is a Span rendered for humans and tests: phases and causes as
// strings, times in ns.
type SpanJSON struct {
	ID        uint32      `json:"id"`
	Op        uint8       `json:"op"`
	Shard     int         `json:"shard"`
	Worker    int         `json:"worker"`
	Forced    bool        `json:"forced,omitempty"`
	Truncated bool        `json:"truncated,omitempty"`
	Ops       int         `json:"ops"`
	Attempts  int         `json:"attempts"`
	Cause     string      `json:"cause"`
	BeginUnix int64       `json:"begin_unix_ns"`
	TotalNs   uint32      `json:"total_ns"`
	Events    []EventJSON `json:"events"`
}

// EventJSON is one rendered timeline entry.
type EventJSON struct {
	Phase   string `json:"phase"`
	Cause   string `json:"cause,omitempty"`
	Attempt uint16 `json:"attempt,omitempty"`
	StartNs uint32 `json:"start_ns"`
	DurNs   uint32 `json:"dur_ns"`
}

func renderSpan(sp *Span) SpanJSON {
	out := SpanJSON{
		ID:        sp.ID,
		Op:        sp.Op,
		Shard:     int(sp.Shard),
		Worker:    int(sp.Worker),
		Forced:    sp.Forced,
		Truncated: sp.Truncated,
		Ops:       int(sp.Ops),
		Attempts:  int(sp.Attempts),
		Cause:     sp.Cause.String(),
		BeginUnix: sp.Begin,
		TotalNs:   sp.TotalNs,
		Events:    make([]EventJSON, 0, sp.Len()),
	}
	for _, e := range sp.Events() {
		ej := EventJSON{
			Phase:   e.Phase.String(),
			Attempt: e.Attempt,
			StartNs: e.StartNs,
			DurNs:   e.DurNs,
		}
		if e.Cause != CauseNone {
			ej.Cause = e.Cause.String()
		}
		out.Events = append(out.Events, ej)
	}
	return out
}

func renderSpans(spans []Span) []SpanJSON {
	out := make([]SpanJSON, 0, len(spans))
	for i := range spans {
		out = append(out, renderSpan(&spans[i]))
	}
	return out
}

// Snapshot gathers the current retention state. Safe while writers run.
func (o *Observatory) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	slow := o.tail.collect(nil)
	sort.Slice(slow, func(i, j int) bool { return slow[i].TotalNs > slow[j].TotalNs })
	if len(slow) > tailK {
		slow = slow[:tailK]
	}
	return Snapshot{
		Slowest: renderSpans(slow),
		Forced:  renderSpans(o.forced.collect(nil)),
	}
}

// Agg gathers the per-shard per-phase aggregation, summing every worker's
// slot of each shard. Safe while writers run.
func (o *Observatory) Agg() AggSnapshot {
	if o == nil {
		return AggSnapshot{}
	}
	n := o.shards
	out := AggSnapshot{Shards: make([]ShardAggSnapshot, 0, n)}
	for sh := 0; sh < n; sh++ {
		var sum shardAgg
		for w := range o.workers {
			sum.merge(&o.agg[w*n+sh])
		}
		out.Shards = append(out.Shards, sum.snapshot(sh))
	}
	return out
}
