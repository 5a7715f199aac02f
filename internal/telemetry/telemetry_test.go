package telemetry

import (
	"fmt"
	"gstm/internal/obs"
	"sync"
	"testing"
	"time"
)

func TestCounterShardingAndLoad(t *testing.T) {
	var c Counter
	for thread := uint64(0); thread < 64; thread++ {
		for i := uint64(0); i <= thread; i++ {
			c.Inc(thread)
		}
	}
	want := uint64(64 * 65 / 2) // Σ (thread+1)
	if got := c.Load(); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
	c.Add(3, 100)
	if got := c.Load(); got != want+100 {
		t.Fatalf("Load after Add = %d, want %d", got, want+100)
	}
	c.reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("Load after reset = %d, want 0", got)
	}
}

func TestCounterIncReturnsShardLocalCount(t *testing.T) {
	var c Counter
	// Threads 0 and 16 share shard 0; thread 1 does not.
	if n := c.Inc(0); n != 1 {
		t.Fatalf("first Inc = %d, want 1", n)
	}
	if n := c.Inc(16); n != 2 {
		t.Fatalf("same-shard Inc = %d, want 2", n)
	}
	if n := c.Inc(1); n != 1 {
		t.Fatalf("other-shard Inc = %d, want 1", n)
	}
}

func TestBucketMappingMonotoneAndConsistent(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1000, 1e6, 1e9, 60e9, 1e12, 1 << 62} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		if b < 0 || b >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if low := bucketLow(b); b < numBuckets-1 && (v < low || v >= bucketHigh(b)) {
			t.Fatalf("value %d outside its bucket %d: [%d, %d)", v, b, low, bucketHigh(b))
		}
	}
	// Every bucket's lower bound maps back to itself.
	for i := 0; i < numBuckets; i++ {
		if got := bucketOf(bucketLow(i)); got != i {
			t.Fatalf("bucketOf(bucketLow(%d)) = %d", i, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations at 1µs, 10 slow at 1ms.
	for i := 0; i < 90; i++ {
		h.Observe(uint64(i), time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(uint64(i), time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Max != time.Millisecond {
		t.Fatalf("max = %v, want 1ms", s.Max)
	}
	if s.P50 < 800*time.Nanosecond || s.P50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v, want ≈1µs", s.P50)
	}
	if s.P99 < 800*time.Microsecond || s.P99 > time.Millisecond {
		t.Fatalf("p99 = %v, want ≈1ms (≤ max)", s.P99)
	}
	if s.Mean() == 0 {
		t.Fatal("mean = 0")
	}
	// Bucket counts must sum to the total and be ascending in bound.
	var sum uint64
	var prev time.Duration
	for _, b := range s.Buckets {
		sum += b.Count
		if b.Le <= prev {
			t.Fatalf("buckets not ascending: %v after %v", b.Le, prev)
		}
		prev = b.Le
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 50; i++ {
		a.Observe(0, time.Microsecond)
		b.Observe(0, time.Millisecond)
	}
	m := a.Snapshot().merge(b.Snapshot())
	if m.Count != 100 {
		t.Fatalf("merged count = %d, want 100", m.Count)
	}
	if m.Max != time.Millisecond {
		t.Fatalf("merged max = %v", m.Max)
	}
	if m.P50 < 800*time.Nanosecond || m.P50 > 2*time.Millisecond {
		t.Fatalf("merged p50 = %v", m.P50)
	}
	if m.P99 < 500*time.Microsecond {
		t.Fatalf("merged p99 = %v, want ≈1ms", m.P99)
	}
	// Merging with an empty snapshot is identity.
	if got := a.Snapshot().merge(HistSnapshot{}); got.Count != 50 {
		t.Fatalf("identity merge count = %d", got.Count)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(KindGateEscape, fmt.Sprintf("s%d", i), "")
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("s%d", 6+i); ev.State != want {
			t.Fatalf("event %d state = %q, want %q (oldest-first)", i, ev.State, want)
		}
		if ev.Seq != uint64(6+i) {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, 6+i)
		}
	}
	var nilRing *Ring
	nilRing.Record("x", "", "") // must not panic
	if got := nilRing.Snapshot(); got != nil {
		t.Fatalf("nil ring snapshot = %v", got)
	}
}

func TestMetricsLifecycleAndSnapshot(t *testing.T) {
	m := NewDetached("test")
	sampled := 0
	for i := 0; i < 64; i++ {
		if m.TxStart(0) {
			sampled++
		}
		m.TxCommit(0)
	}
	m.TxAbort(1, obs.CauseReadValidation)
	m.TxAbort(1, obs.CauseReadValidation)
	m.TxBudgetExceeded(2)
	m.TxCanceled(3)
	m.ObserveCommit(0, 2*time.Microsecond, time.Microsecond, true)
	m.GateArrival("stateA", GatePass, 0, 0)
	m.GateArrival("stateA", GateHold, 0, 5*time.Microsecond)
	m.GateArrival("stateB", GateEscape, 0, 10*time.Microsecond)
	m.WatchdogTrip("stateB", "escape-rate 1.00>0.25")
	m.WatchdogRearm("stateB")

	if sampled != 64/SampleEvery {
		t.Fatalf("sampled %d of 64 starts, want %d", sampled, 64/SampleEvery)
	}
	s := m.Snapshot()
	// Starts is derived: 64 commits + 2 aborts = 66 finished attempts.
	if s.Starts != 66 || s.Commits != 64 || s.Aborts != 2 {
		t.Fatalf("starts/commits/aborts = %d/%d/%d", s.Starts, s.Commits, s.Aborts)
	}
	if s.RetryBudgetExceeded != 1 || s.ContextCanceled != 1 {
		t.Fatalf("budget/canceled = %d/%d", s.RetryBudgetExceeded, s.ContextCanceled)
	}
	if s.GatePassed != 1 || s.GateHeld != 1 || s.GateEscaped != 1 {
		t.Fatalf("gate = %d/%d/%d", s.GatePassed, s.GateHeld, s.GateEscaped)
	}
	if s.WatchdogTrips != 1 || s.WatchdogRearms != 1 {
		t.Fatalf("watchdog = %d/%d", s.WatchdogTrips, s.WatchdogRearms)
	}
	if s.CommitLatency.Count != 1 || s.ValidationLatency.Count != 1 {
		t.Fatalf("latency counts = %d/%d", s.CommitLatency.Count, s.ValidationLatency.Count)
	}
	if s.GateHoldTime.Count != 2 {
		t.Fatalf("gate hold count = %d", s.GateHoldTime.Count)
	}
	if s.TimeToFirstCommit.Count != 1 {
		t.Fatalf("time-to-first-commit count = %d", s.TimeToFirstCommit.Count)
	}
	if len(s.GateStates) != 2 || s.GateStates[0].State != "stateA" || s.GateStates[0].Visits != 2 {
		t.Fatalf("gate states = %+v", s.GateStates)
	}
	// Trip + rearm + escape + budget + cancel = 5 ring events.
	if len(s.Events) != 5 {
		t.Fatalf("events = %d: %+v", len(s.Events), s.Events)
	}

	m.Reset()
	s = m.Snapshot()
	if s.Starts != 0 || s.Commits != 0 || s.CommitLatency.Count != 0 ||
		len(s.GateStates) != 0 || len(s.Events) != 0 {
		t.Fatalf("snapshot after reset not empty: %+v", s)
	}
	// First commit after reset records a fresh time-to-first-commit.
	m.TxCommit(0)
	if got := m.Snapshot().TimeToFirstCommit.Count; got != 1 {
		t.Fatalf("TTFC after reset = %d, want 1", got)
	}
}

func TestGateStateOverflowFoldsIntoOther(t *testing.T) {
	m := NewDetached("test")
	for i := 0; i < maxGateStates+50; i++ {
		m.GateArrival(fmt.Sprintf("state-%04d", i), GatePass, 0, 0)
	}
	s := m.Snapshot()
	var other *GateStateSnapshot
	for i := range s.GateStates {
		if s.GateStates[i].State == OverflowState {
			other = &s.GateStates[i]
		}
	}
	if other == nil || other.Visits != 50 {
		t.Fatalf("overflow entry = %+v, want 50 visits", other)
	}
	if len(s.GateStates) > maxGateStates+1 {
		t.Fatalf("tracked states = %d, want ≤ %d", len(s.GateStates), maxGateStates+1)
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	if m.TxStart(0) {
		t.Fatal("nil TxStart sampled")
	}
	m.TxCommit(0)
	m.TxAbort(0, obs.CauseReadValidation)
	m.TxBudgetExceeded(0)
	m.TxCanceled(0)
	m.ObserveCommit(0, time.Microsecond, 0, false)
	m.GateArrival("s", GatePass, 0, 0)
	m.WatchdogTrip("s", "r")
	m.WatchdogRearm("s")
	m.Reset()
	if s := m.Snapshot(); s.Commits != 0 {
		t.Fatal("nil snapshot non-zero")
	}
	if m.Label() != "" {
		t.Fatal("nil label")
	}
}

func TestGatherMergesRegisteredMetrics(t *testing.T) {
	before := Gather()
	a, b := New("tl2"), New("libtm")
	a.TxStart(0)
	a.TxCommit(0)
	b.TxStart(0)
	b.TxCommit(0)
	b.TxAbort(0, obs.CauseReadValidation)
	after := Gather()
	if d := after.Commits - before.Commits; d != 2 {
		t.Fatalf("gathered commit delta = %d, want 2", d)
	}
	if d := after.Aborts - before.Aborts; d != 1 {
		t.Fatalf("gathered abort delta = %d, want 1", d)
	}
}

// TestUnregisterLeavesGather: an unregistered Metrics drops out of Gather
// (twice over is harmless) and keeps counting for its owner.
func TestUnregisterLeavesGather(t *testing.T) {
	before := len(Gather().Components)
	m := New("unregister-me")
	if got := len(Gather().Components); got != before+1 {
		t.Fatalf("components after New = %d, want %d", got, before+1)
	}
	m.Unregister()
	m.Unregister()
	(*Metrics)(nil).Unregister()
	if got := len(Gather().Components); got != before {
		t.Fatalf("components after Unregister = %d, want %d", got, before)
	}
	m.TxStart(0)
	m.TxCommit(0)
	if got := m.Snapshot().Commits; got != 1 {
		t.Fatalf("unregistered Metrics counted %d commits, want 1", got)
	}
}

func TestGatherComponentBreakdown(t *testing.T) {
	before := Gather()
	prev := make(map[string]uint64)
	for _, c := range before.Components {
		prev[c.Label] = c.Commits
	}
	a, b := New("shardA"), New("shardB")
	for i := 0; i < 3; i++ {
		a.TxStart(0)
		a.TxCommit(0)
	}
	b.TxStart(0)
	b.TxCommit(0)
	b.TxAbort(0, obs.CauseReadValidation)
	after := Gather()
	got := make(map[string]Snapshot)
	for _, c := range after.Components {
		got[c.Label] = c
	}
	if c := got["shardA"]; c.Commits-prev["shardA"] != 3 {
		t.Fatalf("shardA component commits delta = %d, want 3", c.Commits-prev["shardA"])
	}
	if c := got["shardB"]; c.Commits-prev["shardB"] != 1 || c.Aborts == 0 {
		t.Fatalf("shardB component = %+v", got["shardB"])
	}
	for i := 1; i < len(after.Components); i++ {
		if after.Components[i-1].Label >= after.Components[i].Label {
			t.Fatalf("components not sorted by label: %q before %q",
				after.Components[i-1].Label, after.Components[i].Label)
		}
	}
	if len(got["shardA"].Events) != 0 {
		t.Fatal("component snapshot carries events; only the aggregate should")
	}
}

// TestConcurrentRecordSnapshotReset exercises the record path, snapshots
// and resets concurrently; meaningful under -race.
func TestConcurrentRecordSnapshotReset(t *testing.T) {
	m := NewDetached("race")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(thread uint64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sampled := m.TxStart(thread)
				if i%7 == 0 {
					m.TxAbort(thread, obs.CauseReadValidation)
				} else {
					m.TxCommit(thread)
					if sampled {
						m.ObserveCommit(thread, time.Duration(i%1000), time.Duration(i%100), i%2 == 0)
					}
				}
				m.GateArrival("s", GateOutcome(i%3), thread, time.Duration(i%50))
			}
		}(uint64(w))
	}
	for i := 0; i < 50; i++ {
		_ = m.Snapshot()
		if i%10 == 9 {
			m.Reset()
		}
	}
	close(stop)
	wg.Wait()
	_ = m.Snapshot()
}

// TestRecordPathZeroAlloc pins the acceptance criterion: the sharded
// counter and histogram record paths allocate nothing.
func TestRecordPathZeroAlloc(t *testing.T) {
	m := NewDetached("alloc")
	m.TxCommit(0) // retire the one-time first-commit sample
	if n := testing.AllocsPerRun(1000, func() {
		sampled := m.TxStart(1)
		m.TxCommit(1)
		if sampled {
			m.ObserveCommit(1, time.Microsecond, 100*time.Nanosecond, true)
		}
		m.TxAbort(1, obs.CauseReadValidation)
	}); n != 0 {
		t.Fatalf("counter+histogram record path allocates %v bytes-ish/op, want 0", n)
	}
	m.GateArrival("warm", GatePass, 0, 0) // pre-create the state cell
	if n := testing.AllocsPerRun(1000, func() {
		m.GateArrival("warm", GateHold, 0, time.Microsecond)
	}); n != 0 {
		t.Fatalf("gate-state record path allocates %v/op, want 0", n)
	}
}
