package obs_test

import (
	"reflect"
	"testing"
	"time"

	"gstm/internal/obs"
	"gstm/internal/telemetry"
)

// TestAggBucketLayoutMatchesTelemetry feeds the same latencies to the span
// aggregation behind /debug/trace?format=agg and to a telemetry commit
// histogram behind /metrics, and requires both to report the same counts:
// one histogram type, so the same buckets, count and sum.
func TestAggBucketLayoutMatchesTelemetry(t *testing.T) {
	o := obs.New(1, 1)
	m := telemetry.NewDetached("layout")
	var vals []uint32
	for v := uint32(0); v < 64; v++ {
		vals = append(vals, v)
	}
	for v := uint64(64); v < 4e9; v = v*5/4 + 1 {
		vals = append(vals, uint32(v))
	}
	for i, v := range vals {
		var sp obs.Span
		sp.Start(uint32(i), 1, 0, 0, 1, false, 0)
		sp.Finish(obs.CauseNone, int64(v))
		o.Collect(0, &sp)
		m.ObserveCommit(uint64(v), 0, false)
	}
	agg := o.Agg().Shards[0].Total
	hist := m.Snapshot().CommitLatency
	if agg.Count != uint64(len(vals)) {
		t.Fatalf("agg count %d, want %d", agg.Count, len(vals))
	}
	if !reflect.DeepEqual(agg, hist) {
		t.Fatalf("agg %+v\n!= telemetry %+v", agg, hist)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h obs.Hist
	// 90 fast observations at 1µs, 10 slow at 1ms.
	for i := 0; i < 90; i++ {
		h.Observe(uint64(time.Microsecond))
	}
	for i := 0; i < 10; i++ {
		h.Observe(uint64(time.Millisecond))
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	// A quantile is its bucket's midpoint: within 25% of the observation.
	if p50 := time.Duration(s.Quantile(0.50)); p50 < 750*time.Nanosecond || p50 > 1250*time.Nanosecond {
		t.Fatalf("p50 = %v, want ≈1µs", p50)
	}
	if p99 := time.Duration(s.Quantile(0.99)); p99 < 750*time.Microsecond || p99 > 1250*time.Microsecond {
		t.Fatalf("p99 = %v, want ≈1ms", p99)
	}
	if want := uint64(90*time.Microsecond+10*time.Millisecond) / 100; s.MeanNs() != want {
		t.Fatalf("mean = %d, want %d", s.MeanNs(), want)
	}
	// Bucket counts must sum to the total and be ascending in index.
	var sum uint64
	prev := -1
	for i := 0; i+1 < len(s.Buckets); i += 2 {
		if b := int(s.Buckets[i]); b <= prev {
			t.Fatalf("buckets not ascending: %d after %d", b, prev)
		} else {
			prev = b
		}
		sum += s.Buckets[i+1]
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.SumNs != 0 || len(s.Buckets) != 0 {
		t.Fatalf("snapshot after Reset = %+v", s)
	}
}

// TestHistCountsAdd checks the merge Gather relies on: counts and sums
// add, quantiles come from the merged buckets, every bucket of the layout
// (the open-ended last one included) adds into itself, and adding an empty
// snapshot is the identity.
func TestHistCountsAdd(t *testing.T) {
	var a, b obs.Hist
	for i := 0; i < 50; i++ {
		a.Observe(uint64(time.Microsecond))
		b.Observe(uint64(time.Millisecond))
	}
	m := a.Snapshot().Add(b.Snapshot())
	if m.Count != 100 || m.SumNs != 50*uint64(time.Microsecond+time.Millisecond) {
		t.Fatalf("merged count/sum = %d/%d", m.Count, m.SumNs)
	}
	if p25 := m.Quantile(0.25); p25 < 750 || p25 > 1250 {
		t.Fatalf("merged p25 = %dns, want ≈1µs", p25)
	}
	if p99 := m.Quantile(0.99); p99 < 750e3 || p99 > 1250e3 {
		t.Fatalf("merged p99 = %dns, want ≈1ms", p99)
	}
	for i := uint64(0); i < obs.NumBuckets; i++ {
		one := obs.HistCounts{Count: 1, SumNs: 7, Buckets: []uint64{i, 1}}
		if got := one.Add(one); !reflect.DeepEqual(got, obs.HistCounts{Count: 2, SumNs: 14, Buckets: []uint64{i, 2}}) {
			t.Fatalf("bucket %d added into %+v", i, got)
		}
	}
	if got := a.Snapshot().Add(obs.HistCounts{}); !reflect.DeepEqual(got, a.Snapshot()) {
		t.Fatalf("identity add = %+v", got)
	}
	if got := (obs.HistCounts{}).Add(a.Snapshot()); !reflect.DeepEqual(got, a.Snapshot()) {
		t.Fatalf("identity add from empty = %+v", got)
	}
}
