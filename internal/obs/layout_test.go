package obs_test

import (
	"testing"
	"time"

	"gstm/internal/obs"
	"gstm/internal/telemetry"
)

// TestAggBucketLayoutMatchesTelemetry feeds the same latencies to the span
// aggregation behind /debug/trace?format=agg and to a telemetry Histogram
// behind /metrics, and requires both to report the same buckets: every
// aggregation bucket index i, read through obs.BucketHigh(i), is the
// histogram's bound for the same count.
func TestAggBucketLayoutMatchesTelemetry(t *testing.T) {
	o := obs.New(obs.Config{Shards: 1, Workers: 1})
	var h telemetry.Histogram
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
		h.Observe(0, time.Duration(v))
	}
	agg := o.Agg().Shards[0].Total
	hist := h.Snapshot()
	if agg.Count != uint64(len(vals)) || hist.Count != uint64(len(vals)) {
		t.Fatalf("counts: agg %d, histogram %d, want %d", agg.Count, hist.Count, len(vals))
	}
	if len(agg.Buckets) != 2*len(hist.Buckets) {
		t.Fatalf("agg has %d buckets, histogram %d", len(agg.Buckets)/2, len(hist.Buckets))
	}
	for j, hb := range hist.Buckets {
		b, n := agg.Buckets[2*j], agg.Buckets[2*j+1]
		if le := time.Duration(obs.BucketHigh(int(b))); le != hb.Le || n != hb.Count {
			t.Fatalf("bucket %d: agg [.., %d) count %d, histogram le %d count %d", j, le, n, hb.Le, hb.Count)
		}
	}
}
