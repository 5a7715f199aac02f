package wal

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstm/internal/faultinject"
	"gstm/internal/txid"
)

// writtenLog is a file system that notes the wv of every commit record once
// the write(2) carrying it has returned.
type writtenLog struct {
	OSFS
	mu      sync.Mutex
	written map[uint64]bool
}

func (w *writtenLog) OpenFile(name string, flag int) (File, error) {
	f, err := w.OSFS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return notedFile{File: f, w: w}, nil
}

func (w *writtenLog) has(wv uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written[wv]
}

type notedFile struct {
	File
	w *writtenLog
}

// Write notes the records of a segment write: whole frames, after the
// segment's magic header, which is a write of its own. It holds each record
// write back a little first, so a waiter acked too early has time to see
// it.
func (f notedFile) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, segMagic) {
		return f.File.Write(p)
	}
	time.Sleep(20 * time.Microsecond)
	n, err := f.File.Write(p)
	f.w.mu.Lock()
	defer f.w.mu.Unlock()
	for off := 0; off < n; {
		payload, next, ferr := frameAt(p[:n], off)
		if ferr != nil {
			break
		}
		if kind, c, _, derr := decodePayload(payload); derr == nil && kind == kindCommit {
			f.w.written[c.WV] = true
		}
		off = next
	}
	return n, err
}

// parkedUnder reports whether a goroutine sits in sync.(*Mutex).Lock with
// frame (a function name and its opening parenthesis) on its stack.
func parkedUnder(frame string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sync.(*Mutex).Lock(") && strings.Contains(g, frame) {
			return true
		}
	}
	return false
}

// parkedInWait reports whether a goroutine sits in sync.(*Mutex).Lock under
// WaitAcked: a relaxed waiter that waits on fileMu rather than polling.
func parkedInWait() bool { return parkedUnder("wal.(*Log).WaitAcked(") }

// awaitParked waits up to 5 s for parkedInWait.
func awaitParked() bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if parkedInWait() {
			return true
		}
	}
	return false
}

// raisePollBound lets a waiter poll "forever", so one that polls where it
// should wait on the lock is still polling at awaitParked's deadline.
func raisePollBound(t *testing.T) {
	old := pollBound
	pollBound = 1 << 62
	t.Cleanup(func() { pollBound = old })
}

// gatedWrites is a file system that stalls the first record write to
// segment 0 once armed, until release is closed.
type gatedWrites struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gatedWrites) fs(dir string) FS {
	g.entered, g.release = make(chan struct{}), make(chan struct{})
	seg := segPath(dir, 0)
	return faultinject.NewDisk(OSFS{}, func(op faultinject.DiskOp) (int, error) {
		if op.Kind == faultinject.OpWrite && op.Path == seg && g.armed.CompareAndSwap(true, false) {
			close(g.entered)
			<-g.release
		}
		return op.Len, nil
	})
}

// TestRelaxedWaiterParksBehindStalledWrite: a waiter that finds fileMu held
// by a write-only flush polls, but a write(2) that stalls outlasts the poll
// bound, and the waiter then parks on the lock instead of spinning on. With
// GOMAXPROCS 1 at Open nothing else could be running the holder, so the
// waiter parks without polling at all.
func TestRelaxedWaiterParksBehindStalledWrite(t *testing.T) {
	run := func(t *testing.T) {
		dir := t.TempDir()
		g := &gatedWrites{}
		l, _ := openT(t, Config{Dir: dir, Threads: 2, FsyncInterval: time.Hour, FS: g.fs(dir)})
		defer l.Close()
		time.Sleep(20 * time.Millisecond) // the flusher's first pass parks it
		g.armed.Store(true)
		commitOne(l, 0, 1, Op{Key: 1, Val: 1})
		first := make(chan error, 1)
		go func() { first <- l.WaitThread(0) }()
		<-g.entered // the first waiter's write holds fileMu
		commitOne(l, 1, 2, Op{Key: 2, Val: 2})
		second := make(chan error, 1)
		go func() { second <- l.WaitThread(1) }()
		parked := awaitParked()
		close(g.release)
		if !parked {
			<-first
			<-second
			t.Fatal("a waiter behind a stalled write never parked on fileMu")
		}
		for _, c := range []chan error{first, second} {
			if err := <-c; err != nil {
				t.Fatalf("WaitThread: %v", err)
			}
		}
	}
	t.Run("bounded", run)
	t.Run("gomaxprocs1", func(t *testing.T) {
		raisePollBound(t)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run(t)
	})
}

// TestFlusherIdleCheckSkipsFileLock: the flusher's idle check reads the
// segment's fsync state without fileMu. While a stalled write-only flush
// holds the lock, kicking the flusher must never leave it waiting on the
// lock: that hold would not raise writing, so relaxed waiters arriving
// behind it would park instead of polling.
func TestFlusherIdleCheckSkipsFileLock(t *testing.T) {
	dir := t.TempDir()
	g := &gatedWrites{}
	l, _ := openT(t, Config{Dir: dir, Threads: 2, FsyncInterval: time.Hour, FS: g.fs(dir)})
	defer l.Close()
	time.Sleep(20 * time.Millisecond) // the flusher's first pass parks it
	g.armed.Store(true)
	commitOne(l, 0, 1, Op{Key: 1, Val: 1})
	acked := make(chan error, 1)
	go func() { acked <- l.WaitThread(0) }()
	<-g.entered // the waiter's flagged write holds fileMu
	parked := false
	for i := 0; i < 50 && !parked; i++ {
		l.kickFlusher() // nothing staged: the flusher runs its idle check
		time.Sleep(time.Millisecond)
		parked = parkedUnder("wal.(*Log).flushLoop(")
	}
	close(g.release)
	if err := <-acked; err != nil {
		t.Fatalf("WaitThread: %v", err)
	}
	if parked {
		t.Fatal("the flusher's idle check waited on fileMu behind a flagged write")
	}
}

// blockingSource is a fakeSource whose scan stalls until release is closed.
type blockingSource struct {
	fakeSource
	entered, release chan struct{}
}

func (b *blockingSource) Scan(begin func(), put func(key, val uint64)) error {
	close(b.entered)
	<-b.release
	return b.fakeSource.Scan(begin, put)
}

// TestRelaxedWaiterBlocksBehindLongHold: a waiter that arrives while fileMu
// is held for the interval fsync or a snapshot scan waits on the lock at
// once; with the poll bound raised out of reach, a waiter that polled them
// would still be polling when the test gives up.
func TestRelaxedWaiterBlocksBehindLongHold(t *testing.T) {
	raisePollBound(t)
	waitBehind := func(t *testing.T, l *Log, release chan struct{}) {
		t.Helper()
		commitOne(l, 1, 100, Op{Key: 100, Val: 100})
		acked := make(chan error, 1)
		go func() { acked <- l.WaitThread(1) }()
		parked := awaitParked()
		close(release)
		if err := <-acked; err != nil {
			t.Fatalf("WaitThread: %v", err)
		}
		if !parked {
			t.Fatal("a waiter behind a long fileMu hold polled instead of waiting on the lock")
		}
	}

	t.Run("interval-fsync", func(t *testing.T) {
		dir := t.TempDir()
		seg := segPath(dir, 0)
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		fs := faultinject.NewDisk(OSFS{}, func(op faultinject.DiskOp) (int, error) {
			if op.Kind == faultinject.OpSync && op.Path == seg {
				once.Do(func() {
					close(entered)
					<-release
				})
			}
			return op.Len, nil
		})
		l, _ := openT(t, Config{Dir: dir, Threads: 2, FsyncInterval: time.Millisecond, FS: fs})
		defer l.Close()
		commitOne(l, 0, 1, Op{Key: 1, Val: 1})
		if err := l.WaitThread(0); err != nil { // arms the interval fsync
			t.Fatalf("WaitThread: %v", err)
		}
		<-entered
		waitBehind(t, l, release)
	})

	t.Run("snapshot-scan", func(t *testing.T) {
		src := &blockingSource{
			fakeSource: fakeSource{clock: 1, state: map[uint64]uint64{1: 1}},
			entered:    make(chan struct{}), release: make(chan struct{}),
		}
		l, _ := openT(t, Config{Dir: t.TempDir(), Threads: 2, FsyncInterval: time.Hour, Source: src})
		defer l.Close()
		snapped := make(chan error, 1)
		go func() { snapped <- l.Snapshot() }()
		<-src.entered
		waitBehind(t, l, src.release)
		if err := <-snapped; err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	})
}

// BenchmarkRelaxedAckContended: two goroutines on one relaxed log each
// commit a record and wait for its ack, so a waiter often finds the other's
// write holding the file lock.
func BenchmarkRelaxedAckContended(b *testing.B) {
	l, _, err := Open(Config{Dir: b.TempDir(), Threads: 2, FsyncInterval: time.Hour})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer l.Close()
	var wv atomic.Uint64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for th := range 2 {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			p := txid.Pair{Txn: 1, Thread: txid.ThreadID(th)}
			for range n {
				v := wv.Add(1)
				l.Stage(th, 1).Put(v%64, v)
				l.TxCommit(p, v, 0)
				seq, err := l.ThreadSeq(th)
				if err == nil {
					err = l.WaitAcked(seq)
				}
				if err != nil {
					errs[th] = err
					return
				}
			}
		}((b.N + th) / 2)
	}
	wg.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatalf("WaitAcked: %v", err)
		}
	}
}
