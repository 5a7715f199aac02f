package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"gstm/internal/obs"
)

// TestCounterShardingAndLoad: thread ids below the slot count, at it and
// far beyond it all land in some slot, and Load sums every slot exactly;
// reset zeroes them all.
func TestCounterShardingAndLoad(t *testing.T) {
	c := NewCounters(3)
	for thread := uint64(0); thread < 64; thread++ {
		for i := uint64(0); i <= thread; i++ {
			c.Inc(thread, 1)
		}
	}
	want := uint64(64 * 65 / 2) // Σ (thread+1)
	if got := c.Load(1); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
	c.Add(3, 1, 100)
	c.Add(1<<40+5, 1, 7)
	if got := c.Load(1); got != want+107 {
		t.Fatalf("Load after Add = %d, want %d", got, want+107)
	}
	if got := c.Load(0) + c.Load(2); got != 0 {
		t.Fatalf("neighbouring counters read %d, want 0", got)
	}
	c.reset()
	if got := c.Load(1); got != 0 {
		t.Fatalf("Load after reset = %d, want 0", got)
	}
}

func TestCounterIncReturnsShardLocalCount(t *testing.T) {
	c := NewCounters(1)
	// Threads 0 and NumSlots fold onto slot 0; thread 1 does not.
	if n := c.Inc(0, 0); n != 1 {
		t.Fatalf("first Inc = %d, want 1", n)
	}
	if n := c.Inc(NumSlots, 0); n != 2 {
		t.Fatalf("same-slot Inc = %d, want 2", n)
	}
	if n := c.Inc(1, 0); n != 1 {
		t.Fatalf("other-slot Inc = %d, want 1", n)
	}
}

// TestCounterBlockLayout: every slot's block starts on a cache line of its
// own and spans whole lines, so two slots never share a line.
func TestCounterBlockLayout(t *testing.T) {
	for _, n := range []int{1, 3, 8, 9, numCounters} {
		c := NewCounters(n)
		if c.width%lineWords != 0 || c.width < uint64(n) {
			t.Fatalf("NewCounters(%d): block of %d words", n, c.width)
		}
		if len(c.cells) != NumSlots*int(c.width) {
			t.Fatalf("NewCounters(%d): %d cells, want %d slots of %d", n, len(c.cells), NumSlots, c.width)
		}
		for s := uint64(0); s < NumSlots; s++ {
			if addr := uintptr(unsafe.Pointer(c.cell(s, 0))); addr%64 != 0 {
				t.Fatalf("NewCounters(%d): slot %d's block starts at %#x, off a cache line", n, s, addr)
			}
		}
	}
}

// TestBucketMappingMonotoneAndConsistent checks the bucket bounds the
// exporter reports (obs.BucketHigh of each non-empty bucket): they grow
// with the observed value, hold it, and survive Snapshot.Merge for every
// bucket of the layout, the open-ended last one included.
func TestBucketMappingMonotoneAndConsistent(t *testing.T) {
	var prev uint64
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1000, 1e6, 1e9, 60e9, 1e12, 1 << 62} {
		m := NewDetached("buckets")
		m.ObserveCommit(v, 0, false)
		s := m.Snapshot().CommitLatency
		if s.Count != 1 || len(s.Buckets) != 2 || s.Buckets[1] != 1 {
			t.Fatalf("Observe(%d): buckets %+v", v, s.Buckets)
		}
		le := obs.BucketHigh(int(s.Buckets[0]))
		if le < prev {
			t.Fatalf("bucket bound not monotone at %d: %d < %d", v, le, prev)
		}
		prev = le
		if b := obs.BucketOf(v); b < obs.NumBuckets-1 && le <= v {
			t.Fatalf("value %d not below its bucket bound %d", v, le)
		}
	}
	for i := uint64(0); i < obs.NumBuckets; i++ {
		one := Snapshot{CommitLatency: obs.HistCounts{Count: 1, Buckets: []uint64{i, 1}}}
		one.Merge(one)
		if got := one.CommitLatency; got.Count != 2 || len(got.Buckets) != 2 || got.Buckets[0] != i || got.Buckets[1] != 2 {
			t.Fatalf("bucket %d merged into %+v", i, got)
		}
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
	m.ObserveCommit(2000, 1000, true)
	m.ObserveCommit(3000, 0, false) // a commit that did not validate
	cellA := m.GateCell("stateA")
	m.GateArrival(cellA, GatePass, 0, 0)
	m.GateArrival(m.GateCell("stateA"), GateHold, 0, 5000)
	m.GateArrival(m.GateCell("stateB"), GateEscape, 0, 10000)
	m.WatchdogTrip()

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
	if s.WatchdogTrips != 1 {
		t.Fatalf("watchdog trips = %d", s.WatchdogTrips)
	}
	if s.CommitLatency.Count != 2 || s.ValidationLatency.Count != 1 {
		t.Fatalf("latency counts = %d/%d", s.CommitLatency.Count, s.ValidationLatency.Count)
	}
	if s.CommitLatency.SumNs != 5000 || s.ValidationLatency.SumNs != 1000 {
		t.Fatalf("latency sums = %d/%d", s.CommitLatency.SumNs, s.ValidationLatency.SumNs)
	}
	if s.GateHoldTime.Count != 2 || s.GateHoldTime.SumNs != 15000 {
		t.Fatalf("gate hold count/sum = %d/%d", s.GateHoldTime.Count, s.GateHoldTime.SumNs)
	}
	if len(s.GateStates) != 2 || s.GateStates[0].State != "stateA" || s.GateStates[0].Visits != 2 {
		t.Fatalf("gate states = %+v", s.GateStates)
	}

	m.Reset()
	s = m.Snapshot()
	if s.Starts != 0 || s.Commits != 0 || s.CommitLatency.Count != 0 ||
		s.ValidationLatency.Count != 0 || s.GateHoldTime.Count != 0 ||
		s.WatchdogTrips != 0 || len(s.GateStates) != 0 {
		t.Fatalf("snapshot after reset not empty: %+v", s)
	}
	// A cell resolved before the reset keeps booking after it.
	m.GateArrival(cellA, GateEscape, 0, 0)
	if s = m.Snapshot(); len(s.GateStates) != 1 || s.GateStates[0] != (GateStateSnapshot{State: "stateA", Visits: 1, Escapes: 1}) {
		t.Fatalf("gate states after reset and one escape = %+v", s.GateStates)
	}
}

func TestGateStateOverflowFoldsIntoOther(t *testing.T) {
	m := NewDetached("test")
	for i := 0; i < maxGateStates+50; i++ {
		m.GateArrival(m.GateCell(fmt.Sprintf("state-%04d", i)), GatePass, 0, 0)
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
	m.ObserveCommit(1000, 0, false)
	m.GateArrival(m.GateCell("s"), GatePass, 0, 0)
	m.WatchdogTrip()
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
						m.ObserveCommit(uint64(i%1000), uint64(i%100), i%2 == 0)
					}
				}
				m.GateArrival(m.GateCell("s"), GateOutcome(i%3), thread, uint64(i%50))
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
// counter and histogram record paths allocate nothing, the sampled commit's
// obs.Now stamps and obs.Hist observations included.
func TestRecordPathZeroAlloc(t *testing.T) {
	m := NewDetached("alloc")
	if n := testing.AllocsPerRun(1000, func() {
		sampled := m.TxStart(1)
		m.TxCommit(1)
		if sampled {
			t0 := obs.Now()
			m.ObserveCommit(uint64(obs.Now()-t0), 100, true)
		}
		m.TxAbort(1, obs.CauseReadValidation)
	}); n != 0 {
		t.Fatalf("counter+histogram record path allocates %v bytes-ish/op, want 0", n)
	}
	warm := m.GateCell("warm")
	if n := testing.AllocsPerRun(1000, func() {
		m.GateArrival(warm, GateHold, 0, 1000)
	}); n != 0 {
		t.Fatalf("gate-state record path allocates %v/op, want 0", n)
	}
}
