package telemetry

import (
	"sync/atomic"
	"time"

	"gstm/internal/obs"
)

// Log-bucketed latency histogram on obs's fixed bucket layout (obs.BucketOf),
// so every Histogram — and the observatory's phase aggregates — merge by
// adding bucket counts.

// histShards is the record-path sharding. Latency observations are sampled
// (see Metrics.TxStart), so contention is far below the raw counters' and
// four shards suffice.
const histShards = 4

// histShard is one shard of a Histogram. Trailing fields pad the shard's
// tail so adjacent shards' hot counters do not share a line.
type histShard struct {
	counts [obs.NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
	_      [40]byte
}

// Histogram is a mergeable, allocation-free latency histogram sharded by
// worker thread. The zero value is ready for use. Negative durations clamp
// to zero.
type Histogram struct {
	shards [histShards]histShard
}

// Observe records one duration on the shard selected by thread.
func (h *Histogram) Observe(thread uint64, d time.Duration) {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	s := &h.shards[thread&(histShards-1)]
	s.counts[obs.BucketOf(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot merges all shards into a point-in-time view with quantile
// estimates. Safe to call while writers run.
func (h *Histogram) Snapshot() HistSnapshot {
	var merged [obs.NumBuckets]uint64
	var snap HistSnapshot
	var sum uint64
	for i := range h.shards {
		s := &h.shards[i]
		for b := range merged {
			merged[b] += s.counts[b].Load()
		}
		snap.Count += s.count.Load()
		sum += s.sum.Load()
		if m := s.max.Load(); m > uint64(snap.Max) {
			snap.Max = time.Duration(m)
		}
	}
	snap.Sum = time.Duration(sum)
	// Quantiles from the merged buckets. The per-bucket counter sum may
	// momentarily exceed snap.Count under concurrent writers (counts are
	// bumped before count); re-total so cumulative walks are consistent.
	var total uint64
	for _, n := range merged {
		total += n
	}
	if total == 0 {
		return snap
	}
	snap.Count = total
	snap.P50 = quantile(&merged, total, 0.50, snap.Max)
	snap.P95 = quantile(&merged, total, 0.95, snap.Max)
	snap.P99 = quantile(&merged, total, 0.99, snap.Max)
	for b, n := range merged {
		if n > 0 {
			snap.Buckets = append(snap.Buckets, HistBucket{
				Le:    time.Duration(obs.BucketHigh(b)),
				Count: n,
			})
		}
	}
	return snap
}

// quantile returns the q-quantile estimate: the midpoint of the bucket
// where the cumulative count crosses ceil(q*total), capped at the observed
// maximum.
func quantile(merged *[obs.NumBuckets]uint64, total uint64, q float64, max time.Duration) time.Duration {
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for b, n := range merged {
		cum += n
		if cum >= target {
			mid := (obs.BucketLow(b) + obs.BucketHigh(b)) / 2
			if d := time.Duration(mid); d < max || max == 0 {
				return d
			}
			return max
		}
	}
	return max
}

// reset zeroes every shard (racing observations land before or after).
func (h *Histogram) reset() {
	for i := range h.shards {
		s := &h.shards[i]
		for b := range s.counts {
			s.counts[b].Store(0)
		}
		s.count.Store(0)
		s.sum.Store(0)
		s.max.Store(0)
	}
}
