package wal

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gstm/internal/faultinject"
)

// opLog records, in order, every disk-changing operation a log makes
// through its file system (paths relative to the log directory), and the
// acks the test notes between them.
type opLog struct {
	dir string
	mu  sync.Mutex
	ops []string
}

func (r *opLog) fs() FS {
	return faultinject.NewDisk(OSFS{}, func(op faultinject.DiskOp) (int, error) {
		e := op.Kind.String() + " " + strings.TrimPrefix(strings.TrimPrefix(op.Path, r.dir), "/")
		if op.Kind == faultinject.OpWrite {
			e += fmt.Sprintf("@%d", op.Off)
		}
		r.note(strings.TrimSpace(e))
		return op.Len, nil
	})
}

func (r *opLog) note(e string) {
	r.mu.Lock()
	r.ops = append(r.ops, e)
	r.mu.Unlock()
}

// take returns the operations recorded since the last take.
func (r *opLog) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := r.ops
	r.ops = nil
	return ops
}

// TestSeamOpOrder pins the order of the log's file operations: a fresh
// Open creates its segment and fsyncs the directory before any record is
// written; a strict commit writes, fsyncs, then acks; a relaxed commit is
// written through by its waiter and acked unsynced; a snapshot cycle
// creates and dir-syncs the next segment, fsyncs and closes the sealed
// one, writes snapshot.tmp (pairs, checksum, header), fsyncs, closes and
// renames it, fsyncs the directory and only then removes the sealed
// segment.
func TestSeamOpOrder(t *testing.T) {
	t.Run("strict", func(t *testing.T) {
		rec := &opLog{dir: t.TempDir()}
		l, _ := openT(t, Config{Dir: rec.dir, Threads: 1, FS: rec.fs()})
		commitOne(l, 0, 1, Op{Key: 1, Val: 1})
		if err := l.WaitThread(0); err != nil {
			t.Fatalf("WaitThread: %v", err)
		}
		rec.note("ack")
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		want := []string{
			"mkdirall", "remove snapshot.tmp",
			"open seg-000000.log", "write seg-000000.log@0", "syncdir",
			"write seg-000000.log@8", "sync seg-000000.log", "ack",
			"close seg-000000.log",
		}
		if got := rec.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("ops\n got %q\nwant %q", got, want)
		}
	})

	t.Run("relaxed+snapshot", func(t *testing.T) {
		rec := &opLog{dir: t.TempDir()}
		src := &fakeSource{clock: 1, state: map[uint64]uint64{1: 1}}
		l, _ := openT(t, Config{Dir: rec.dir, Threads: 1, FsyncInterval: time.Hour, Source: src, FS: rec.fs()})
		rec.take()
		commitOne(l, 0, 1, Op{Key: 1, Val: 1})
		if err := l.WaitThread(0); err != nil {
			t.Fatalf("WaitThread: %v", err)
		}
		rec.note("ack")
		if err := l.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		want := []string{
			"write seg-000000.log@8", "ack",
			"open seg-000001.log", "write seg-000001.log@0", "syncdir",
			"sync seg-000000.log", "close seg-000000.log",
			"open snapshot.tmp", "write snapshot.tmp@24", "write snapshot.tmp@40", "write snapshot.tmp@0",
			"sync snapshot.tmp", "close snapshot.tmp", "rename snapshot.tmp", "syncdir",
			"remove seg-000000.log",
		}
		if got := rec.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("ops\n got %q\nwant %q", got, want)
		}
		_ = l.Close()
	})
}

// TestStrictAckFollowsSegmentDirSync: under a weak file system a created
// file's directory entry is durable only once the directory is fsynced,
// so no strict ack may come while a segment that can hold the acked
// record awaits that fsync — neither the segment a fresh Open creates nor
// the one a snapshot cycle rotates to, whether or not the cycle succeeds.
func TestStrictAckFollowsSegmentDirSync(t *testing.T) {
	rec := &opLog{dir: t.TempDir()}
	src := &failingSource{fakeSource: fakeSource{clock: 10, state: map[uint64]uint64{}}}
	l, _ := openT(t, Config{Dir: rec.dir, Threads: 1, Source: src, FS: rec.fs()})
	wv := uint64(0)
	commitAck := func() {
		t.Helper()
		wv++
		commitOne(l, 0, wv, Op{Key: wv, Val: wv})
		if err := l.WaitThread(0); err != nil {
			t.Fatalf("WaitThread: %v", err)
		}
		rec.note("ack")
	}
	commitAck()
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	commitAck()
	src.fail = true
	if err := l.Snapshot(); err == nil {
		t.Fatal("Snapshot with a failing scan succeeded")
	}
	commitAck()
	_ = l.Close()

	undurable := map[string]bool{} // created segments awaiting a directory fsync
	acks := 0
	for _, e := range rec.take() {
		switch {
		case strings.HasPrefix(e, "open seg-"):
			undurable[e] = true
		case e == "syncdir":
			clear(undurable)
		case e == "ack":
			acks++
			if len(undurable) > 0 {
				t.Fatalf("ack %d while %v await the directory fsync", acks, undurable)
			}
		}
	}
	if acks != 3 {
		t.Fatalf("%d acks recorded, want 3", acks)
	}
}

// failingSource is a fakeSource whose scan fails once fail is set.
type failingSource struct {
	fakeSource
	fail bool
}

func (f *failingSource) Scan(begin func(), put func(key, val uint64)) error {
	if f.fail {
		return errors.New("scan failed")
	}
	return f.fakeSource.Scan(begin, put)
}

// TestSealedFsyncOffFileLock: a snapshot cycle fsyncs the segment it
// sealed with fileMu released, so while that fsync is held a relaxed
// waiter on the shard still writes its record through and is acked.
func TestSealedFsyncOffFileLock(t *testing.T) {
	dir := t.TempDir()
	sealed := segPath(dir, 0)
	entered, release := make(chan struct{}), make(chan struct{})
	fs := faultinject.NewDisk(OSFS{}, func(op faultinject.DiskOp) (int, error) {
		if op.Kind == faultinject.OpSync && op.Path == sealed {
			close(entered) // the sealed segment's one fsync
			<-release
		}
		return op.Len, nil
	})
	src := &fakeSource{clock: 10, state: map[uint64]uint64{1: 1}}
	l, _ := openT(t, Config{Dir: dir, Threads: 1, FsyncInterval: time.Hour, Source: src, FS: fs})
	defer l.Close()
	commitOne(l, 0, 1, Op{Key: 1, Val: 1})
	if err := l.WaitThread(0); err != nil { // leaves the segment unsynced
		t.Fatalf("WaitThread: %v", err)
	}
	snapped := make(chan error, 1)
	go func() { snapped <- l.Snapshot() }()
	<-entered

	commitOne(l, 0, 2, Op{Key: 2, Val: 2})
	acked := make(chan error, 1)
	go func() { acked <- l.WaitThread(0) }()
	select {
	case err := <-acked:
		if err != nil {
			t.Fatalf("WaitThread during the sealed fsync: %v", err)
		}
	case <-time.After(2 * time.Second):
		close(release)
		<-acked
		<-snapped
		t.Fatal("a relaxed ack waited on the sealed segment's fsync")
	}
	close(release)
	if err := <-snapped; err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
}

// TestSnapshotFileFaultSkipsCycle: a failed write, fsync or rename of
// snapshot.tmp skips the cycle and nothing else — no snapshot.tmp is left,
// the segments stay, the log keeps acking, and every acked record
// recovers.
func TestSnapshotFileFaultSkipsCycle(t *testing.T) {
	for _, kind := range []faultinject.DiskOpKind{faultinject.OpWrite, faultinject.OpSync, faultinject.OpRename} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			tmp := snapPath(dir) + ".tmp"
			errInjected := errors.New("injected " + kind.String())
			fs := faultinject.NewDisk(OSFS{}, func(op faultinject.DiskOp) (int, error) {
				if op.Kind == kind && op.Path == tmp {
					return 0, errInjected
				}
				return op.Len, nil
			})
			src := &fakeSource{clock: 0, state: map[uint64]uint64{}}
			l, _ := openT(t, Config{Dir: dir, Threads: 1, Source: src, FS: fs})
			commit := func(wv uint64) {
				t.Helper()
				commitOne(l, 0, wv, Op{Key: wv, Val: wv})
				if err := l.WaitThread(0); err != nil {
					t.Fatalf("WaitThread %d: %v", wv, err)
				}
				src.state[wv], src.clock = wv, wv
			}
			for wv := uint64(1); wv <= 4; wv++ {
				commit(wv)
			}
			if err := l.Snapshot(); !errors.Is(err, errInjected) {
				t.Fatalf("Snapshot = %v, want the injected %s error", err, kind)
			}
			if l.Failed() {
				t.Fatal("a failed snapshot file operation failed the log")
			}
			for _, name := range []string{tmp, snapPath(dir)} {
				if _, err := os.Stat(name); !os.IsNotExist(err) {
					t.Fatalf("%s after the skipped cycle: %v", name, err)
				}
			}
			if _, err := os.Stat(segPath(dir, 0)); err != nil {
				t.Fatalf("sealed segment gone after the skipped cycle: %v", err)
			}
			commit(5)
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			rec, err := Read(dir)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if got := rec.Apply(); !reflect.DeepEqual(got, src.state) {
				t.Fatalf("recovered %v, acked %v", got, src.state)
			}
		})
	}
}
