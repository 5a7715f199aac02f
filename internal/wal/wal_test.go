package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/faultinject"
	"gstm/internal/trace"
	"gstm/internal/txid"
)

// commitOne stages ops for thread and delivers the commit event with wv,
// mimicking what the serving layer + STM do.
func commitOne(l *Log, thread int, wv uint64, ops ...Op) {
	stg := l.Stage(thread, 1)
	for _, op := range ops {
		if op.Del {
			stg.Del(op.Key)
		} else {
			stg.Put(op.Key, op.Val)
		}
	}
	p := txid.Pair{Txn: 1, Thread: txid.ThreadID(thread)}
	l.TxCommit(p, wv, 0)
}

func openT(t *testing.T, cfg Config) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, Config{Dir: dir, Threads: 2})
	if rec.Replayed() != 0 || rec.SnapWV != 0 {
		t.Fatalf("fresh dir recovered %d records, snapWV %d", rec.Replayed(), rec.SnapWV)
	}
	commitOne(l, 0, 10, Op{Key: 1, Val: 100})
	commitOne(l, 1, 11, Op{Key: 2, Val: 200}, Op{Key: 3, Val: 300})
	commitOne(l, 0, 12, Op{Del: true, Key: 1})
	if err := l.WaitThread(0); err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, Config{Dir: dir, Threads: 2})
	defer l2.Close()
	if got := rec2.Replayed(); got != 3 {
		t.Fatalf("replayed %d records, want 3", got)
	}
	for i := 1; i < len(rec2.Commits); i++ {
		if rec2.Commits[i].WV <= rec2.Commits[i-1].WV {
			t.Fatalf("commits not sorted by wv: %v then %v", rec2.Commits[i-1].WV, rec2.Commits[i].WV)
		}
	}
	if rec2.MaxWV != 12 {
		t.Fatalf("MaxWV = %d, want 12", rec2.MaxWV)
	}
	m := rec2.Apply()
	want := map[uint64]uint64{2: 200, 3: 300}
	if len(m) != len(want) || m[2] != 200 || m[3] != 300 {
		t.Fatalf("Apply = %v, want %v", m, want)
	}
}

func TestStrictAckIsDurable(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 1}) // FsyncInterval 0: strict
	commitOne(l, 0, 5, Op{Key: 7, Val: 70})
	if err := l.WaitThread(0); err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	// Acked in strict mode means fsynced: simulate a kill (no final
	// flush), then recover.
	l.Crash()
	_, rec := openT(t, Config{Dir: dir, Threads: 1})
	if rec.Replayed() != 1 || rec.Commits[0].WV != 5 {
		t.Fatalf("strict acked record lost across crash: %+v", rec.Commits)
	}
}

func TestRelaxedAckSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 1, FsyncInterval: time.Hour})
	for wv := uint64(1); wv <= 20; wv++ {
		commitOne(l, 0, wv, Op{Key: wv, Val: wv * 10})
		if err := l.WaitThread(0); err != nil {
			t.Fatalf("WaitThread(wv %d): %v", wv, err)
		}
	}
	_, _, fsyncs, _ := l.Stats()
	if fsyncs != 0 {
		t.Fatalf("relaxed mode fsynced %d times inside the window", fsyncs)
	}
	// Crash drops only the unwritten buffer; every acked record was
	// written to the (real) page cache and survives a process kill.
	l.Crash()
	_, rec := openT(t, Config{Dir: dir, Threads: 1})
	if rec.Replayed() != 20 {
		t.Fatalf("recovered %d of 20 acked records after crash", rec.Replayed())
	}
}

func TestAbandonDropsStagedOps(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 1})
	defer l.Close()
	stg := l.Stage(0, 2)
	stg.Put(1, 111) // transaction fails: never commits
	l.Abandon(0)
	// Next transaction on the thread is read-only (no Stage); its commit
	// event must not pick up the abandoned ops.
	l.TxCommit(txid.Pair{Txn: 0, Thread: 0}, 99, 0)
	if err := l.WaitThread(0); err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	appends, _, _, _ := l.Stats()
	if appends != 0 {
		t.Fatalf("abandoned ops were appended (%d appends)", appends)
	}
}

func TestCommitAfterCloseIsRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 1})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	commitOne(l, 0, 3, Op{Key: 1, Val: 1})
	err := l.WaitThread(0)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitThread after close = %v, want ErrClosed", err)
	}
}

// fakeSource is a map-backed SnapshotSource driven by the test: the test
// applies each committed record to the map before the snapshot runs, and
// clock always covers the highest wv handed out.
type fakeSource struct {
	clock uint64
	state map[uint64]uint64
}

func (f *fakeSource) ClockNow() uint64 { return f.clock }
func (f *fakeSource) Scan(begin func(), put func(key, val uint64)) error {
	begin()
	for k, v := range f.state {
		put(k, v)
	}
	return nil
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	src := &fakeSource{state: map[uint64]uint64{}}
	l, _ := openT(t, Config{Dir: dir, Threads: 1, Source: src})
	oracle := map[uint64]uint64{}
	apply := func(wv uint64, op Op) {
		commitOne(l, 0, wv, op)
		if op.Del {
			delete(oracle, op.Key)
		} else {
			oracle[op.Key] = op.Val
		}
		src.clock = wv
	}
	for wv := uint64(1); wv <= 50; wv++ {
		apply(wv, Op{Key: wv % 7, Val: wv})
	}
	if err := l.WaitThread(0); err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	// Source state mirrors everything committed so far.
	for k, v := range oracle {
		src.state[k] = v
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Records after the snapshot live only in the new active segment.
	for wv := uint64(51); wv <= 60; wv++ {
		apply(wv, Op{Key: wv % 7, Val: wv})
	}
	if err := l.WaitThread(0); err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	l.Crash()

	names, _ := os.ReadDir(dir)
	segs := 0
	for _, n := range names {
		if len(n.Name()) > 4 && n.Name()[:4] == "seg-" {
			segs++
		}
	}
	if segs > 2 {
		t.Fatalf("truncation left %d segments", segs)
	}

	_, rec := openT(t, Config{Dir: dir, Threads: 1})
	if rec.SnapWV != 50 {
		t.Fatalf("snapWV = %d, want 50", rec.SnapWV)
	}
	if rec.Replayed() != 10 {
		t.Fatalf("replayed %d post-snapshot records, want 10", rec.Replayed())
	}
	got := rec.Apply()
	if len(got) != len(oracle) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(oracle))
	}
	for k, v := range oracle {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d, want %d", k, got[k], v)
		}
	}
}

// TestTruncatedSegmentPrefix cuts a valid segment at every byte offset
// and checks the scan recovers exactly a prefix of the original records —
// never a partial record, never a panic (satellite: replay property).
func TestTruncatedSegmentPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 1})
	var wvs []uint64
	for wv := uint64(1); wv <= 8; wv++ {
		commitOne(l, 0, wv, Op{Key: wv, Val: wv}, Op{Del: wv%2 == 0, Key: wv + 100})
		wvs = append(wvs, wv)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.Crash()
	buf, err := os.ReadFile(segPath(dir, 0))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	for cut := 0; cut <= len(buf); cut++ {
		var got []uint64
		dropped := scanSegment(buf[:cut], func(c CommitRecord) { got = append(got, c.WV) }, func(AbortRecord) {})
		for i, wv := range got {
			if wv != wvs[i] {
				t.Fatalf("cut %d: record %d has wv %d, want %d (not a prefix)", cut, i, wv, wvs[i])
			}
		}
		if cut == len(buf) && (dropped != 0 || len(got) != len(wvs)) {
			t.Fatalf("full segment: %d records, %d dropped", len(got), dropped)
		}
	}
}

// TestReplayMatchesOracle is the property test: a pseudo-random op
// sequence, recovered after a crash, must fold to exactly the state a
// sequential map execution produces.
func TestReplayMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 4, FsyncInterval: time.Hour})
	oracle := map[uint64]uint64{}
	rng := uint64(0x9e3779b9)
	next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
	for wv := uint64(1); wv <= 500; wv++ {
		thread := int(next() % 4)
		n := 1 + int(next()%3)
		ops := make([]Op, 0, n)
		for j := 0; j < n; j++ {
			k := next() % 32
			if next()%5 == 0 {
				ops = append(ops, Op{Del: true, Key: k})
			} else {
				ops = append(ops, Op{Key: k, Val: next()})
			}
		}
		commitOne(l, thread, wv, ops...)
		for _, op := range ops {
			if op.Del {
				delete(oracle, op.Key)
			} else {
				oracle[op.Key] = op.Val
			}
		}
		if err := l.WaitThread(thread); err != nil {
			t.Fatalf("WaitThread: %v", err)
		}
	}
	l.Crash()
	_, rec := openT(t, Config{Dir: dir, Threads: 4})
	if rec.Replayed() != 500 {
		t.Fatalf("replayed %d, want 500", rec.Replayed())
	}
	got := rec.Apply()
	if len(got) != len(oracle) {
		t.Fatalf("recovered %d keys, oracle has %d", len(got), len(oracle))
	}
	for k, v := range oracle {
		if got[k] != v {
			t.Fatalf("key %d: recovered %d, oracle %d", k, got[k], v)
		}
	}
}

func TestAbortLoggingBuildsTrace(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 2, LogAborts: true})
	// Abort attributed to the commit at wv 7, then the commit itself.
	l.Stage(0, 3)
	l.TxAbort(txid.Pair{Txn: 3, Thread: 0}, 7, true)
	commitOne(l, 1, 7, Op{Key: 1, Val: 1})
	commitOne(l, 0, 8, Op{Key: 2, Val: 2})
	// A commit that staged nothing, as every served Get batch does, is not
	// logged, so the rebuilt Tseq has no read-only commits.
	readOnly := txid.Pair{Txn: 4, Thread: 1}
	l.Stage(1, 4)
	l.TxCommit(readOnly, 9, 0)
	if err := l.WaitThread(0); err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	l.Abandon(0)
	l.Crash()
	_, rec := openT(t, Config{Dir: dir, Threads: 2})
	if len(rec.Aborts) != 1 || rec.Aborts[0].ByWV != 7 {
		t.Fatalf("aborts = %+v, want one attributed to wv 7", rec.Aborts)
	}
	tr := rec.BuildTrace()
	if tr == nil || tr.Commits != 2 || tr.Aborts != 1 || len(tr.Seq) != 2 {
		t.Fatalf("trace = %+v", tr)
	}
	if len(tr.Seq[0].Aborted) != 1 {
		t.Fatalf("wv-7 commit should carry the abort, got %v", tr.Seq[0].Aborted)
	}
	for _, st := range tr.Seq {
		if st.Commit == readOnly.Pack() {
			t.Fatalf("staged-but-empty commit %v is in the rebuilt Tseq %v", readOnly, tr.Seq)
		}
	}
}

// TestAbortRecordCarriesAbortingSite: an abort is logged under the
// aborting pair's site, not the site the thread last staged at — a
// read-only batch stages nothing, so its abort follows a write batch's
// staging.
func TestAbortRecordCarriesAbortingSite(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 1, LogAborts: true})
	l.Stage(0, 3).Put(1, 1)
	l.TxCommit(txid.Pair{Txn: 3, Thread: 0}, 1, 0)
	l.TxAbort(txid.Pair{Txn: 4, Thread: 0}, 1, true)
	if err := l.WaitThread(0); err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	l.Crash()
	_, rec := openT(t, Config{Dir: dir, Threads: 1})
	if len(rec.Aborts) != 1 || rec.Aborts[0].Site != 4 {
		t.Fatalf("aborts = %+v, want one at site 4", rec.Aborts)
	}
}

// TestReadLeavesDirUntouched: Read recovers a crashed directory — snapshot,
// two segments, a torn final record, snapshot.tmp residue — without
// changing a byte of it, recovers exactly what Open then recovers, and
// refuses a directory that holds no log.
func TestReadLeavesDirUntouched(t *testing.T) {
	dir := t.TempDir()
	src := &fakeSource{state: map[uint64]uint64{}}
	l, _ := openT(t, Config{Dir: dir, Threads: 1, Source: src})
	for wv := uint64(1); wv <= 4; wv++ {
		commitOne(l, 0, wv, Op{Key: wv, Val: wv})
		src.state[wv], src.clock = wv, wv
	}
	if err := l.WaitThread(0); err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	commitOne(l, 0, 5, Op{Key: 5, Val: 5})
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.Crash()
	l, _ = openT(t, Config{Dir: dir, Threads: 1}) // the second segment
	commitOne(l, 0, 6, Op{Key: 6, Val: 6})
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.Crash()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("setup left segments %v (%v), want 2", segs, err)
	}
	torn := appendCommit(nil, CommitRecord{WV: 7, Site: 1, Ops: []Op{{Key: 7, Val: 7}}})
	torn = torn[:len(torn)-3]
	f, err := os.OpenFile(segs[1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(snapPath(dir)+".tmp", []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	files := func() map[string]string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]string, len(ents))
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			m[e.Name()] = string(b)
		}
		return m
	}
	before := files()
	rec, err := Read(dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if after := files(); !reflect.DeepEqual(before, after) {
		t.Fatalf("Read changed the directory: %d entries before, %d after", len(before), len(after))
	}
	if rec.SnapWV != 4 || rec.Segments != 2 || rec.DroppedBytes != len(torn) || rec.Replayed() != 2 {
		t.Fatalf("Read: snapWV %d, %d segments, %d dropped bytes, %d to replay",
			rec.SnapWV, rec.Segments, rec.DroppedBytes, rec.Replayed())
	}
	l, opened := openT(t, Config{Dir: dir, Threads: 1})
	defer l.Close()
	if !reflect.DeepEqual(rec, opened) {
		t.Fatalf("Read recovered\n%+v\nOpen recovered\n%+v", rec, opened)
	}
	if _, err := os.Stat(snapPath(dir) + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("Open left snapshot.tmp residue: %v", err)
	}

	if _, err := Read(t.TempDir()); err == nil {
		t.Fatal("Read accepted an empty directory")
	}
	missing := filepath.Join(t.TempDir(), "missing")
	if _, err := Read(missing); err == nil {
		t.Fatal("Read accepted a missing directory")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("Read created %s: %v", missing, err)
	}
}

// TestBuildTraceMatchesCollector: the Tseq rebuilt from a recovered log is
// the trace a live Collector finalizes from the same commit and abort
// events — commits appended out of wv order, known and unattributed
// aborts, several per commit, and per-thread abort counts included.
func TestBuildTraceMatchesCollector(t *testing.T) {
	dir := t.TempDir()
	const threads = 3
	l, _ := openT(t, Config{Dir: dir, Threads: threads, LogAborts: true})
	live := trace.NewCollector()
	pair := func(thread int, site uint16) txid.Pair {
		return txid.Pair{Txn: txid.TxnID(site), Thread: txid.ThreadID(thread)}
	}
	abort := func(thread int, site uint16, byWV uint64, known bool) {
		l.Stage(thread, site)
		l.TxAbort(pair(thread, site), byWV, known)
		l.Abandon(thread)
		live.TxAbort(pair(thread, site), byWV, known)
	}
	commit := func(thread int, site uint16, wv uint64, aborts int) {
		l.Stage(thread, site).Put(wv, wv)
		l.TxCommit(pair(thread, site), wv, aborts)
		live.TxCommit(pair(thread, site), wv, aborts)
	}
	abort(0, 3, 7, true)
	abort(2, 5, 7, true)
	commit(1, 1, 7, 0)
	abort(1, 2, 9, false)
	commit(2, 5, 10, 1)
	commit(0, 3, 9, 1)
	abort(2, 4, 12, true)
	commit(1, 2, 8, 1)
	commit(0, 3, 12, 0)
	commit(2, 4, 11, 2)
	for th := 0; th < threads; th++ {
		if err := l.WaitThread(th); err != nil {
			t.Fatalf("WaitThread(%d): %v", th, err)
		}
	}
	l.Crash()
	_, rec := openT(t, Config{Dir: dir, Threads: threads})
	got, want := rec.BuildTrace(), live.Finalize()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered trace\n%+v\nlive collector\n%+v", got, want)
	}
	if got.Commits != 6 || got.Aborts != 4 || got.Unattributed != 1 {
		t.Fatalf("trace totals %d commits, %d aborts, %d unattributed", got.Commits, got.Aborts, got.Unattributed)
	}
}

// TestAppendZeroAlloc is the allocation gate on the hot path: once the
// staging slices are warm, one staged commit (Stage + Put + TxCommit)
// must not allocate — the append encodes into the group buffer in place.
func TestAppendZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 1, FsyncInterval: time.Hour})
	defer l.Close()
	p := txid.Pair{Txn: 1, Thread: 0}
	wv := uint64(0)
	commit := func() {
		wv++
		stg := l.Stage(0, 1)
		stg.Put(wv%64, wv)
		stg.Put((wv+1)%64, wv)
		l.TxCommit(p, wv, 1)
	}
	for i := 0; i < 256; i++ {
		commit() // warm the staging slice and group buffer
	}
	if err := l.WaitThread(0); err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	avg := testing.AllocsPerRun(200, commit)
	if avg != 0 {
		t.Fatalf("staged commit allocates %.1f allocs/op, want 0", avg)
	}
}

// writeProbe is a fault-free file system that counts the record writes
// (a segment's writes after its header) and which of them ran while the
// test goroutine sat inside WaitThread, and notes when each fsync started.
type writeProbe struct {
	inWait atomic.Bool
	writes atomic.Uint64
	inside atomic.Uint64 // writes seen while inWait was set

	mu     sync.Mutex
	fsyncs []time.Time
}

func (p *writeProbe) fs() FS {
	return faultinject.NewDisk(OSFS{}, func(op faultinject.DiskOp) (int, error) {
		switch {
		case op.Kind == faultinject.OpWrite && op.Seq > 0:
			p.writes.Add(1)
			if p.inWait.Load() {
				p.inside.Add(1)
			}
		case op.Kind == faultinject.OpSync:
			p.mu.Lock()
			p.fsyncs = append(p.fsyncs, time.Now())
			p.mu.Unlock()
		}
		return op.Len, nil
	})
}

// TestRelaxedWaitWritesThrough: in relaxed mode a commit alone leaves its
// record staged — nothing wakes the flusher — and the goroutine that waits
// for the record writes it, inside its WaitThread call.
func TestRelaxedWaitWritesThrough(t *testing.T) {
	probe := &writeProbe{}
	l, _ := openT(t, Config{Dir: t.TempDir(), Threads: 1, FsyncInterval: time.Hour, FS: probe.fs()})
	defer l.Close()
	time.Sleep(20 * time.Millisecond) // the flusher's first pass parks it
	commitOne(l, 0, 1, Op{Key: 1, Val: 1})
	time.Sleep(20 * time.Millisecond) // room for a woken flusher to write
	if w := probe.writes.Load(); w != 0 || l.QueueDepth() != 1 {
		t.Fatalf("after TxCommit alone: %d writes, queue depth %d; want 0 and 1", w, l.QueueDepth())
	}
	probe.inWait.Store(true)
	err := l.WaitThread(0)
	probe.inWait.Store(false)
	if err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	if w, in := probe.writes.Load(), probe.inside.Load(); w != 1 || in != 1 {
		t.Fatalf("%d record writes, %d of them inside WaitThread; want the one inside it", w, in)
	}
	if d := l.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after the ack", d)
	}
}

// TestRelaxedIntervalFsync: write-through waiters never fsync, so the
// flusher must still run the interval fsync once their writes leave the
// segment unsynced — and no more than once per interval.
func TestRelaxedIntervalFsync(t *testing.T) {
	const interval = 5 * time.Millisecond
	probe := &writeProbe{}
	l, _ := openT(t, Config{Dir: t.TempDir(), Threads: 1, FsyncInterval: interval, FS: probe.fs()})
	time.Sleep(20 * time.Millisecond) // the flusher's first pass parks it
	start := time.Now()
	wv := uint64(0)
	for time.Since(start) < 60*time.Millisecond {
		wv++
		commitOne(l, 0, wv, Op{Key: wv, Val: wv})
		if err := l.WaitThread(0); err != nil {
			t.Fatalf("WaitThread: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	time.Sleep(3 * interval) // the last write's fsync comes due
	elapsed := time.Since(start)
	l.Crash() // no final fsync: the count below is the flusher's alone

	probe.mu.Lock()
	defer probe.mu.Unlock()
	n := len(probe.fsyncs)
	if n == 0 {
		t.Fatal("no interval fsync after write-through writes")
	}
	if max := int(elapsed/interval) + 1; n > max {
		t.Fatalf("%d fsyncs in %v, want at most %d", n, elapsed, max)
	}
	for i := 1; i < n; i++ {
		if gap := probe.fsyncs[i].Sub(probe.fsyncs[i-1]); gap < interval {
			t.Fatalf("fsyncs %d and %d only %v apart, interval %v", i-1, i, gap, interval)
		}
	}
}

// TestRelaxedWriteThroughSnapshots: the write that crosses the
// SnapshotEvery budget is a waiter's, not the flusher's, and must still
// start a snapshot cycle.
func TestRelaxedWriteThroughSnapshots(t *testing.T) {
	src := &fakeSource{clock: 10, state: map[uint64]uint64{1: 10}}
	l, _ := openT(t, Config{Dir: t.TempDir(), Threads: 1, FsyncInterval: time.Hour, SnapshotEvery: 10, Source: src})
	defer l.Close()
	for wv := uint64(1); wv <= 10; wv++ {
		if wv == 10 {
			// The first write's wake-up (it armed the interval fsync) is
			// long over: the flusher sleeps on its hour-long deadline.
			time.Sleep(20 * time.Millisecond)
			if _, _, _, snaps := l.Stats(); snaps != 0 {
				t.Fatalf("%d snapshots before the budget was reached", snaps)
			}
		}
		commitOne(l, 0, wv, Op{Key: 1, Val: wv})
		if err := l.WaitThread(0); err != nil {
			t.Fatalf("WaitThread: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, _, snaps := l.Stats(); snaps > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot after write-through reached the SnapshotEvery budget")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRelaxedConcurrentWaiters: waiters on four threads race to write each
// other's records, polling and parking behind each other's writes; every
// wait must be acked, none before the write(2) carrying its record has
// returned, and every acked record must survive a crash.
func TestRelaxedConcurrentWaiters(t *testing.T) {
	const threads, perThread = 4, 200
	dir := t.TempDir()
	fs := &writtenLog{written: map[uint64]bool{}}
	l, _ := openT(t, Config{Dir: dir, Threads: threads, FsyncInterval: time.Hour, FS: fs})
	var wv atomic.Uint64
	errs := make(chan error, threads)
	for th := 0; th < threads; th++ {
		go func(th int) {
			for i := 0; i < perThread; i++ {
				v := wv.Add(1)
				commitOne(l, th, v, Op{Key: v, Val: v})
				if err := l.WaitThread(th); err != nil {
					errs <- err
					return
				}
				if !fs.has(v) {
					errs <- fmt.Errorf("wv %d acked before a write carried it", v)
					return
				}
			}
			errs <- nil
		}(th)
	}
	for th := 0; th < threads; th++ {
		if err := <-errs; err != nil {
			t.Fatalf("WaitThread: %v", err)
		}
	}
	l.Crash()
	_, rec := openT(t, Config{Dir: dir, Threads: threads})
	if got := rec.Replayed(); got != threads*perThread {
		t.Fatalf("recovered %d of %d acked records after crash", got, threads*perThread)
	}
	m := rec.Apply()
	for v := uint64(1); v <= threads*perThread; v++ {
		if m[v] != v {
			t.Fatalf("acked key %d lost across crash", v)
		}
	}
}

// TestRelaxedAckZeroAlloc is the allocation gate on the relaxed ack path:
// once warm, a staged commit plus the wait that writes it through (Stage +
// Put + TxCommit + WaitThread) must not allocate.
func TestRelaxedAckZeroAlloc(t *testing.T) {
	l, _ := openT(t, Config{Dir: t.TempDir(), Threads: 1, FsyncInterval: time.Hour})
	defer l.Close()
	p := txid.Pair{Txn: 1, Thread: 0}
	wv := uint64(0)
	var err error
	commit := func() {
		wv++
		stg := l.Stage(0, 1)
		stg.Put(wv%64, wv)
		stg.Put((wv+1)%64, wv)
		l.TxCommit(p, wv, 1)
		if e := l.WaitThread(0); e != nil {
			err = e
		}
	}
	for i := 0; i < 256; i++ {
		commit() // warm the staging slice and both group buffers
	}
	avg := testing.AllocsPerRun(200, commit)
	if err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	if avg != 0 {
		t.Fatalf("relaxed commit+ack allocates %.1f allocs/op, want 0", avg)
	}
}
