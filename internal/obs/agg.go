package obs

import (
	"math/bits"
	"sync/atomic"
)

// Per-shard, per-phase latency aggregation. Every finished span feeds it —
// retention only decides which whole spans are kept, never the aggregate —
// so the loadgen tail-attribution table is exact regardless of what the
// ring and reservoir keep. Writers record into their own slot's
// histograms; a scrape sums the slots. A slot's aggregate, and each of its
// phase histograms, is allocated by the first span (or phase time) that
// lands in it.

// The latency bucket layout of every Hist, so /metrics and /debug/trace
// report comparable quantiles: HDR-style, values (nanoseconds) map to
// buckets whose width grows geometrically, with subCount sub-buckets per
// power of two for ≤25% relative bucket width. One layout means histograms
// merge by adding bucket counts, with no allocation on the record path.
const (
	subBits  = 2
	subCount = 1 << subBits // sub-buckets per octave

	// NumBuckets caps the representable range: the last bucket starts at
	// 7<<33 ns ≈ 60s and absorbs everything longer. STM commit latencies
	// are ns–ms; 60s headroom covers even pathological gate holds.
	NumBuckets = 140
)

// BucketOf maps a non-negative nanosecond value to its bucket index.
// Values 0..3 get exact buckets; beyond that, bucket i covers
// [lower(i), lower(i+1)) with lower(i) = (subCount + i%subCount) << (i/subCount - 1).
func BucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - subBits - 1
	idx := exp*subCount + int(v>>uint(exp)) // v>>exp ∈ [subCount, 2*subCount)
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketLow returns the inclusive lower bound (ns) of bucket i.
func BucketLow(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	exp := i/subCount - 1
	mant := uint64(subCount + i%subCount)
	return mant << uint(exp)
}

// BucketHigh returns the exclusive upper bound (ns) of bucket i, which is
// the next bucket's lower bound. The last bucket is open-ended; doubling
// its lower bound keeps quantile estimates finite.
func BucketHigh(i int) uint64 {
	if i >= NumBuckets-1 {
		return 2 * BucketLow(NumBuckets-1)
	}
	return BucketLow(i + 1)
}

// Hist is the module's one latency histogram: nanosecond observations on
// the shared bucket layout, mergeable by adding bucket counts. The
// observatory keeps one per (slot, shard, phase) that has recorded, so the
// thread slot that records a span adds into histograms no other slot
// writes; telemetry keeps one per sampled latency series. The zero value
// is ready for use, and neither Observe nor Reset allocates.
type Hist struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one observation of ns nanoseconds.
func (h *Hist) Observe(ns uint64) {
	h.counts[BucketOf(ns)].Add(1)
	h.sum.Add(ns)
}

// Reset zeroes h; observations racing it land before or after.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// shardAgg is one slot's aggregation of one shard: the whole-span total
// and, from the first span that spends time in it, each phase's histogram
// (nil until then).
type shardAgg struct {
	total  Hist
	phases [NumPhases]atomic.Pointer[Hist]
}

// installed returns *p, first installing a zero T when *p is nil.
// Concurrent first callers install one T between them and all return it.
func installed[T any](p *atomic.Pointer[T]) *T {
	if v := p.Load(); v != nil {
		return v
	}
	p.CompareAndSwap(nil, new(T))
	return p.Load()
}

// observeSpan folds one finished span into the aggregation: each phase's
// summed duration (a span may hold many retry events) and the span total.
// Phases with zero time are not recorded, so a phase's count reflects the
// spans that actually spent time there.
func (a *shardAgg) observeSpan(sp *Span) {
	tot := sp.PhaseTotals()
	for ph, ns := range tot {
		if ns > 0 {
			installed(&a.phases[ph]).Observe(ns)
		}
	}
	a.total.Observe(uint64(sp.TotalNs))
}

// merge adds o's counts into a; Agg folds a shard's slots into one with it.
// Counts add bucket by bucket — every slot shares the one layout — so the
// fold is exact. A phase o never recorded adds nothing.
func (a *shardAgg) merge(o *shardAgg) {
	for ph := range a.phases {
		if h := o.phases[ph].Load(); h != nil {
			installed(&a.phases[ph]).merge(h)
		}
	}
	a.total.merge(&o.total)
}

func (h *Hist) merge(o *Hist) {
	for i := range h.counts {
		if n := o.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.sum.Add(o.sum.Load())
}

// HistCounts is a raw bucket dump of one Hist. Bucket i covers
// [BucketLow(i), BucketHigh(i)); only non-zero buckets are emitted. Raw
// counts (not quantiles) let a scraper diff two snapshots and compute
// run-local quantiles — that is how gstm load builds its tail-attribution
// table — and let Gather add the snapshots of many runtimes exactly.
type HistCounts struct {
	Count   uint64   `json:"count"`
	SumNs   uint64   `json:"sum_ns"`
	Buckets []uint64 `json:"buckets,omitempty"` // pairs: bucket index, count
}

// Snapshot returns h's counts. Safe while writers run; Count is the sum of
// the bucket counts read, so quantile walks stay consistent.
func (h *Hist) Snapshot() HistCounts {
	var out HistCounts
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			out.Buckets = append(out.Buckets, uint64(i), n)
			out.Count += n
		}
	}
	out.SumNs = h.sum.Load()
	return out
}

// Sub subtracts an earlier snapshot of the same distribution, yielding the
// counts accumulated between the two scrapes.
func (h HistCounts) Sub(prev HistCounts) HistCounts {
	prevAt := make(map[uint64]uint64, len(prev.Buckets)/2)
	for i := 0; i+1 < len(prev.Buckets); i += 2 {
		prevAt[prev.Buckets[i]] = prev.Buckets[i+1]
	}
	var out HistCounts
	for i := 0; i+1 < len(h.Buckets); i += 2 {
		b, n := h.Buckets[i], h.Buckets[i+1]
		if n > prevAt[b] {
			d := n - prevAt[b]
			out.Buckets = append(out.Buckets, b, d)
			out.Count += d
		}
	}
	if h.SumNs > prev.SumNs {
		out.SumNs = h.SumNs - prev.SumNs
	}
	return out
}

// Add returns the sum of two snapshots: bucket counts add bucket by bucket.
func (h HistCounts) Add(o HistCounts) HistCounts {
	var counts [NumBuckets]uint64
	for _, x := range [2]HistCounts{h, o} {
		for i := 0; i+1 < len(x.Buckets); i += 2 {
			if b := x.Buckets[i]; b < NumBuckets {
				counts[b] += x.Buckets[i+1]
			}
		}
	}
	out := HistCounts{SumNs: h.SumNs + o.SumNs}
	for b, n := range counts {
		if n > 0 {
			out.Buckets = append(out.Buckets, uint64(b), n)
			out.Count += n
		}
	}
	return out
}

// Quantile estimates the q-quantile (ns) as the midpoint of the bucket
// where the cumulative count crosses the target.
func (h HistCounts) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := 0; i+1 < len(h.Buckets); i += 2 {
		cum += h.Buckets[i+1]
		if cum >= target {
			b := int(h.Buckets[i])
			return (BucketLow(b) + BucketHigh(b)) / 2
		}
	}
	return 0
}

// MeanNs returns the distribution's mean (ns).
func (h HistCounts) MeanNs() uint64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumNs / h.Count
}

// ShardAggSnapshot is one shard's aggregation snapshot.
type ShardAggSnapshot struct {
	Shard  int                   `json:"shard"`
	Phases map[string]HistCounts `json:"phases"`
	Total  HistCounts            `json:"total"`
}

// AggSnapshot is the full per-shard per-phase aggregation, served by
// /debug/trace?format=agg.
type AggSnapshot struct {
	Shards []ShardAggSnapshot `json:"shards"`
}

func (a *shardAgg) snapshot(sh int) ShardAggSnapshot {
	out := ShardAggSnapshot{Shard: sh, Phases: make(map[string]HistCounts, int(NumPhases))}
	for ph := range a.phases {
		if h := a.phases[ph].Load(); h != nil {
			if hc := h.Snapshot(); hc.Count > 0 {
				out.Phases[Phase(ph).String()] = hc
			}
		}
	}
	out.Total = a.total.Snapshot()
	return out
}
