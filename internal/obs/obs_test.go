package obs

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCausePhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Cause(0); c < NumCauses; c++ {
		n := c.String()
		if n == "" || n == "unknown" {
			t.Fatalf("cause %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate cause name %q", n)
		}
		seen[n] = true
	}
	if Cause(250).String() != "unknown" {
		t.Fatal("out-of-range cause should be unknown")
	}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() == "" || p.String() == "unknown" {
			t.Fatalf("phase %d has no name", p)
		}
	}
	if Phase(250).String() != "unknown" {
		t.Fatal("out-of-range phase should be unknown")
	}
}

func TestSpanTimeline(t *testing.T) {
	var sp Span
	base := int64(1_000_000_000)
	sp.Start(7, 2, 1, 3, 4, true, base)
	sp.NoteAttempt()
	sp.Add(PhaseDecode, CauseNone, 0, base, 500)
	sp.Add(PhaseQueue, CauseNone, 0, base+500, 1500)
	sp.Add(PhaseRetry, CauseLockBusy, 1, base+2000, 3000)
	sp.NoteAttempt()
	sp.Add(PhaseLock, CauseNone, 2, base+5000, 100)
	sp.Finish(CauseNone, base+6000)

	if sp.ID != 7 || sp.Shard != 1 || sp.Worker != 3 || sp.Ops != 4 || !sp.Forced {
		t.Fatalf("header fields wrong: %+v", sp)
	}
	if sp.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", sp.Attempts)
	}
	if sp.TotalNs != 6000 {
		t.Fatalf("total = %d, want 6000", sp.TotalNs)
	}
	ev := sp.Events()
	if len(ev) != 4 {
		t.Fatalf("events = %d, want 4", len(ev))
	}
	if ev[2].Phase != PhaseRetry || ev[2].Cause != CauseLockBusy || ev[2].Attempt != 1 {
		t.Fatalf("retry event wrong: %+v", ev[2])
	}
	if ev[1].StartNs != 500 || ev[1].DurNs != 1500 {
		t.Fatalf("queue event offsets wrong: %+v", ev[1])
	}
	tot := sp.PhaseTotals()
	if tot[PhaseRetry] != 3000 || tot[PhaseLock] != 100 {
		t.Fatalf("phase totals wrong: %v", tot)
	}
}

func TestSpanOverflowEvictsRetries(t *testing.T) {
	var sp Span
	sp.Start(1, 1, 0, 0, 1, false, 0)
	sp.Add(PhaseDecode, CauseNone, 0, 0, 10)
	for i := 0; i < MaxEvents+8; i++ {
		sp.Add(PhaseRetry, CauseReadValidation, i+1, int64(i*100), 50)
	}
	sp.Add(PhaseLock, CauseNone, 0, 9000, 5)
	if !sp.Truncated {
		t.Fatal("overflowed span must be marked truncated")
	}
	if sp.Len() != MaxEvents {
		t.Fatalf("len = %d, want %d", sp.Len(), MaxEvents)
	}
	ev := sp.Events()
	if ev[0].Phase != PhaseDecode {
		t.Fatal("non-retry head event must survive eviction")
	}
	if ev[MaxEvents-1].Phase != PhaseLock {
		t.Fatal("newest event must be present after eviction")
	}
}

func TestNilSpanSafe(t *testing.T) {
	var sp *Span
	sp.Start(1, 1, 0, 0, 1, false, 0)
	sp.Add(PhaseRetry, CauseLockBusy, 1, 0, 1)
	sp.AddSince(PhaseGate, CauseNone, 0, Now())
	sp.NoteAttempt()
	sp.Finish(CauseNone, 0)
	if sp.Len() != 0 || sp.Events() != nil {
		t.Fatal("nil span must report empty")
	}
	var o *Observatory
	o.Collect(0, &Span{})
	if len(o.Snapshot().Slowest) != 0 || len(o.Agg().Shards) != 0 {
		t.Fatal("nil observatory must report empty")
	}
}

func TestSat32(t *testing.T) {
	if sat32(-5) != 0 {
		t.Fatal("negative must clamp to 0")
	}
	if sat32(1<<40) != 0xFFFFFFFF {
		t.Fatal("overflow must saturate")
	}
	if sat32(123) != 123 {
		t.Fatal("in-range must pass through")
	}
}

func mkSpan(id uint32, shard uint8, total uint32, forced bool) Span {
	var sp Span
	sp.Start(id, 1, shard, 0, 1, forced, int64(id)*1000)
	sp.Add(PhaseQueue, CauseNone, 0, int64(id)*1000, int64(total/2))
	sp.Add(PhaseRetry, CauseGateTimeout, 1, int64(id)*1000, int64(total/2))
	sp.Finish(CauseNone, int64(id)*1000+int64(total))
	return sp
}

func TestReservoirKeepsSlowest(t *testing.T) {
	o := New(2, 2)
	for i := uint32(1); i <= 100; i++ {
		sp := mkSpan(i, uint8(i%2), i*10, false)
		o.Collect(int(i%2), &sp)
	}
	snap := o.Snapshot()
	if len(snap.Slowest) != tailK {
		t.Fatalf("slowest = %d, want %d", len(snap.Slowest), tailK)
	}
	// The 32 slowest totals are 690..1000.
	for _, sp := range snap.Slowest {
		if sp.TotalNs < 690 {
			t.Fatalf("reservoir kept a fast span: %+v", sp)
		}
	}
	if snap.Slowest[0].TotalNs < snap.Slowest[1].TotalNs {
		t.Fatal("slowest must be sorted descending")
	}
}

func TestReservoirWindowRotation(t *testing.T) {
	o := New(1, 1)
	a := mkSpan(1, 0, 500, false)
	o.Collect(0, &a)
	b := mkSpan(2, 0, 400, false)
	b.Begin = a.Begin + int64(tailWindow+time.Second) // forces rotation
	o.Collect(0, &b)
	snap := o.Snapshot()
	// Both windows are served: the rotated-out span and the new one.
	if len(snap.Slowest) != 2 {
		t.Fatalf("slowest across windows = %d, want 2", len(snap.Slowest))
	}
}

func TestForcedRingAlwaysRetained(t *testing.T) {
	o := New(1, 1)
	sp := mkSpan(9, 0, 1, true)
	o.Collect(0, &sp)
	snap := o.Snapshot()
	if len(snap.Forced) != 1 || snap.Forced[0].ID != 9 || !snap.Forced[0].Forced {
		t.Fatalf("forced span not retained: %+v", snap.Forced)
	}

	// Past the wrap the ring keeps the newest forcedRingSize spans, oldest
	// first and newest last.
	o = New(1, 1)
	const spans = forcedRingSize + 3
	for i := uint32(1); i <= spans; i++ {
		sp := mkSpan(i, 0, 1, true)
		o.Collect(0, &sp)
	}
	forced := o.Snapshot().Forced
	if len(forced) != forcedRingSize {
		t.Fatalf("wrapped ring holds %d spans, want %d", len(forced), forcedRingSize)
	}
	for i, sp := range forced {
		if want := uint32(spans - forcedRingSize + 1 + i); sp.ID != want {
			t.Fatalf("Forced[%d].ID = %d, want %d (oldest first)", i, sp.ID, want)
		}
	}
	if last := forced[len(forced)-1].ID; last != spans {
		t.Fatalf("last forced ID = %d, want the newest, %d", last, spans)
	}
}

func TestAggQuantilesAndDiff(t *testing.T) {
	o := New(2, 1)
	before := o.Agg()
	for i := 0; i < 1000; i++ {
		sp := mkSpan(uint32(i), 1, 1000, false) // 500ns queue + 500ns retry
		o.Collect(0, &sp)
	}
	after := o.Agg()
	if len(after.Shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(after.Shards))
	}
	sh1 := after.Shards[1]
	q := sh1.Phases["queue"].Sub(before.Shards[1].Phases["queue"])
	if q.Count != 1000 {
		t.Fatalf("queue count = %d, want 1000", q.Count)
	}
	p50 := q.Quantile(0.50)
	// 500ns lands in a log bucket; midpoint must be within 25%.
	if p50 < 375 || p50 > 625 {
		t.Fatalf("queue p50 = %dns, want ~500ns", p50)
	}
	if sh1.Total.Count != 1000 {
		t.Fatalf("total count = %d, want 1000", sh1.Total.Count)
	}
	if m := q.MeanNs(); m != 500 {
		t.Fatalf("queue mean = %d, want 500", m)
	}
	if got := after.Shards[0].Total.Count; got != 0 {
		t.Fatalf("shard 0 saw %d spans, want 0", got)
	}
}

// TestAggMergesSlots collects spans from several goroutines, each into its
// own worker's slot, and requires Agg — which sums the slots at scrape time
// — to report exactly what one slot fed the same spans serially reports:
// the same counts, sums and buckets for every shard and phase.
func TestAggMergesSlots(t *testing.T) {
	const workers, per = 4, 2000
	spanOf := func(w, i int) Span {
		var sp Span
		begin := int64(w*per+i) * 1e4
		sp.Start(uint32(i), 1, uint8(i%2), uint8(w), 1, false, begin)
		sp.Add(PhaseQueue, CauseNone, 0, begin, int64(i%97)*13)
		if i%3 == 0 {
			sp.Add(PhaseRetry, CauseLockBusy, 1, begin, int64(w+1)*int64(i))
		}
		sp.Add(PhaseLock, CauseNone, 1, begin, int64(i*i%5000))
		sp.Finish(CauseNone, begin+int64(i)*7+int64(w))
		return sp
	}
	par := New(2, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := spanOf(w, i)
				par.Collect(w, &sp)
			}
		}(w)
	}
	wg.Wait()
	serial := New(2, 1)
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			sp := spanOf(w, i)
			serial.Collect(0, &sp)
		}
	}
	got, want := par.Agg(), serial.Agg()
	if got.Shards[0].Total.Count+got.Shards[1].Total.Count != workers*per {
		t.Fatalf("merged totals count %d+%d spans, want %d", got.Shards[0].Total.Count, got.Shards[1].Total.Count, workers*per)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slot-merged aggregation differs from the serial fold:\n got %+v\nwant %+v", got, want)
	}
}

// TestSpanClock pins the span clock: Now never goes backwards, within one
// goroutine or across a hand-off between goroutines, it reads unix
// nanoseconds (within 1 ms of the wall clock), and spans stamped with it
// never close before an event they hold.
func TestSpanClock(t *testing.T) {
	prev := Now()
	for i := 0; i < 100000; i++ {
		now := Now()
		if now < prev {
			t.Fatalf("Now went backwards: %d after %d", now, prev)
		}
		prev = now
	}
	if d := Now() - time.Now().UnixNano(); d > int64(time.Millisecond) || d < -int64(time.Millisecond) {
		t.Fatalf("Now is %v off the wall clock, want within 1ms", time.Duration(d))
	}

	// Ping-pong a reading between goroutines: the receiver's reading is
	// never earlier than the sender's.
	ping, pong := make(chan int64), make(chan int64)
	go func() {
		for v := range ping {
			if now := Now(); now < v {
				t.Errorf("reading %d on the receiver, %d on the sender", now, v)
			}
			pong <- Now()
		}
		close(pong)
	}()
	for i := 0; i < 2000; i++ {
		ping <- Now()
		if v, now := <-pong, Now(); now < v {
			t.Errorf("reading %d on the receiver, %d on the sender", now, v)
			break
		}
	}
	close(ping)
	<-pong

	// Spans recorded concurrently, stamped only with Now: no phase starts
	// before Begin, and none ends after Finish.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sp Span
			for i := 0; i < 2000; i++ {
				begin := Now()
				sp.Start(uint32(i), 1, 0, 0, 1, false, begin)
				sp.AddSince(PhaseQueue, CauseNone, 0, begin)
				sp.AddSince(PhaseLock, CauseNone, 1, sp.LastEndNs())
				end := Now()
				sp.Finish(CauseNone, end)
				if end < begin || sp.LastEndNs() > end {
					t.Errorf("span [%d, %d] holds an event ending at %d", begin, end, sp.LastEndNs())
					return
				}
				for _, e := range sp.Events() {
					if uint64(e.StartNs)+uint64(e.DurNs) > uint64(sp.TotalNs) {
						t.Errorf("event %+v outside the span's %dns", e, sp.TotalNs)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestBucketLayout pins the one latency bucket layout (telemetry's
// histograms use it too): monotone, in range, every value inside its
// bucket, and every bucket's lower bound mapping back to it.
func TestBucketLayout(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1000, 1023, 1024, 1e6, 1 << 20, 1e9, 60e9, 1e12, 1 << 40, 1 << 62} {
		b := BucketOf(v)
		if b < prev {
			t.Fatalf("BucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		if b < 0 || b >= NumBuckets {
			t.Fatalf("BucketOf(%d) = %d out of range", v, b)
		}
		if low := BucketLow(b); low > v || (b < NumBuckets-1 && v >= BucketHigh(b)) {
			t.Fatalf("value %d outside its bucket %d: [%d, %d)", v, b, low, BucketHigh(b))
		}
	}
	for i := 0; i < NumBuckets; i++ {
		if got := BucketOf(BucketLow(i)); got != i {
			t.Fatalf("BucketOf(BucketLow(%d)) = %d", i, got)
		}
	}
}

func TestHandlerFormats(t *testing.T) {
	o := New(1, 1)
	sp := mkSpan(42, 0, 5000, true)
	o.Collect(0, &sp)
	h := o.Handler()

	for _, format := range []string{"", "?format=agg", "?format=chrome"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace"+format, nil))
		if rec.Code != 200 {
			t.Fatalf("format %q: status %d", format, rec.Code)
		}
		var v any
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("format %q: invalid JSON: %v", format, err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?format=nope", nil))
	if rec.Code != 400 {
		t.Fatalf("bad format: status %d, want 400", rec.Code)
	}

	// The default view carries the cause labels the e2e tests assert on.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Forced) != 1 || snap.Forced[0].Events[1].Cause != "gate-timeout" {
		t.Fatalf("cause label missing from rendered span: %+v", snap.Forced)
	}
}

// TestSpanRecordZeroAlloc is the CI gate: the untraced (nil-span) hook and
// the traced record path must both be allocation-free.
func TestSpanRecordZeroAlloc(t *testing.T) {
	var nilSpan *Span
	if n := testing.AllocsPerRun(1000, func() {
		nilSpan.Add(PhaseRetry, CauseLockBusy, 1, 0, 10)
		nilSpan.NoteAttempt()
		nilSpan.Finish(CauseNone, 0)
	}); n != 0 {
		t.Fatalf("nil-span hooks allocate %.1f/op, want 0", n)
	}

	var sp Span
	if n := testing.AllocsPerRun(1000, func() {
		sp.Start(1, 1, 0, 0, 4, false, 1000)
		sp.Add(PhaseQueue, CauseNone, 0, 1000, 10)
		sp.Add(PhaseRetry, CauseReadValidation, 1, 1010, 10)
		sp.Add(PhaseLock, CauseNone, 2, 1020, 10)
		sp.Finish(CauseNone, 1030)
	}); n != 0 {
		t.Fatalf("span record path allocates %.1f/op, want 0", n)
	}

	o := New(1, 1)
	sp2 := mkSpan(1, 0, 100, false)
	if n := testing.AllocsPerRun(1000, func() {
		o.Collect(0, &sp2)
	}); n != 0 {
		t.Fatalf("Collect allocates %.1f/op, want 0", n)
	}
}

func BenchmarkSpanRecordUntraced(b *testing.B) {
	var sp *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp.Add(PhaseRetry, CauseLockBusy, 1, 0, 10)
		sp.NoteAttempt()
		sp.Finish(CauseNone, 0)
	}
}

func BenchmarkSpanRecordTraced(b *testing.B) {
	var sp Span
	o := New(4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp.Start(uint32(i), 1, uint8(i&3), 0, 4, false, int64(i))
		sp.Add(PhaseQueue, CauseNone, 0, int64(i), 10)
		sp.Add(PhaseLock, CauseNone, 1, int64(i)+10, 10)
		sp.Finish(CauseNone, int64(i)+100)
		o.Collect(0, &sp)
	}
}

// BenchmarkCollectParallel is the serving path's Collect: every goroutine a
// worker of its own, all spans on one shard.
func BenchmarkCollectParallel(b *testing.B) {
	o := New(1, runtime.GOMAXPROCS(0))
	var next atomic.Int32
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := int(next.Add(1) - 1)
		sp := mkSpan(1, 0, 1000, false)
		for pb.Next() {
			o.Collect(w, &sp)
		}
	})
}
