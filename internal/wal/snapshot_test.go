package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// encodeSnapshotRef is the snapshot encoding built as one image, kept here
// as the reference the streamed writer must match byte for byte.
func encodeSnapshotRef(snapWV uint64, keys, vals []uint64) []byte {
	buf := append([]byte(nil), snapMagic...)
	buf = binary.BigEndian.AppendUint64(buf, snapWV)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(keys)))
	for i := range keys {
		buf = binary.BigEndian.AppendUint64(buf, keys[i])
		buf = binary.BigEndian.AppendUint64(buf, vals[i])
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[len(snapMagic):], castagnoli))
}

// sliceSource streams a fixed image. Its attempts field lists, per scan
// attempt, how many of the pairs that attempt puts before the next one
// begins; the last attempt puts them all.
type sliceSource struct {
	clock      uint64
	keys, vals []uint64
	attempts   []int
}

func (s *sliceSource) ClockNow() uint64 { return s.clock }
func (s *sliceSource) Scan(begin func(), put func(key, val uint64)) error {
	for _, n := range s.attempts {
		begin()
		for i := 0; i < n; i++ {
			put(s.keys[i%len(s.keys)]+1000, s.vals[i%len(s.vals)]+1000) // an aborted attempt's stale view
		}
	}
	begin()
	for i := range s.keys {
		put(s.keys[i], s.vals[i])
	}
	return nil
}

func pairs(n int) (keys, vals []uint64) {
	keys, vals = make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = uint64(i)*0x9e3779b97f4a7c15, uint64(i)
	}
	return keys, vals
}

// TestSnapshotAllocBounded: a snapshot cycle streams through one fixed
// buffer, so snapshotting 2^16 pairs (a 1 MiB image) allocates far less
// than the image.
func TestSnapshotAllocBounded(t *testing.T) {
	src := &sliceSource{clock: 7}
	src.keys, src.vals = pairs(1 << 16)
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 1, Source: src})
	defer l.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got > 128<<10 {
		t.Fatalf("one snapshot of %d pairs allocated %d bytes, want <= %d", len(src.keys), got, 128<<10)
	}
	t.Logf("one snapshot of %d pairs allocated %d bytes", len(src.keys), got)
	b, err := os.ReadFile(snapPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, encodeSnapshotRef(7, src.keys, src.vals)) {
		t.Fatal("streamed snapshot differs from the reference encoding")
	}
}

// TestSnapshotRestartDiscardsAbortedAttempt: what an attempt put before
// the next begin is gone, whether it reached the file or not and whether
// the attempt was shorter or longer than the one that committed.
func TestSnapshotRestartDiscardsAbortedAttempt(t *testing.T) {
	const n = 3*snapBufSize/16 + 7 // pairs spanning several buffer flushes
	keys, vals := pairs(n)
	for _, tc := range []struct {
		name     string
		attempts []int
	}{
		{"half then all", []int{n / 2}},
		{"all then all", []int{n}},
		{"longer then all", []int{n + snapBufSize/16}},
		{"one buffer then all", []int{snapBufSize / 16}},
		{"several aborts", []int{n, 3, n / 2}},
		{"none", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &sliceSource{clock: 42, keys: keys, vals: vals, attempts: tc.attempts}
			dir := t.TempDir()
			l, _ := openT(t, Config{Dir: dir, Threads: 1, Source: src})
			defer l.Close()
			if err := l.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			b, err := os.ReadFile(snapPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, encodeSnapshotRef(42, keys, vals)) {
				t.Fatalf("snapshot is %d bytes, reference %d: encodings differ", len(b), len(encodeSnapshotRef(42, keys, vals)))
			}
			wv, gotK, gotV, err := decodeSnapshot(b)
			if err != nil || wv != 42 || !reflect.DeepEqual(gotK, keys) || !reflect.DeepEqual(gotV, vals) {
				t.Fatalf("decode: wv %d, %d keys, err %v; want the last attempt's %d pairs at wv 42", wv, len(gotK), err, n)
			}
		})
	}
	// An empty source still writes a valid, empty snapshot.
	src := &sliceSource{clock: 3}
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: 1, Source: src})
	defer l.Close()
	if err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if b, _ := os.ReadFile(snapPath(dir)); !bytes.Equal(b, encodeSnapshotRef(3, nil, nil)) {
		t.Fatal("empty snapshot differs from the reference encoding")
	}
}

// lockedSource is a SnapshotSource whose writers commit under its mutex:
// a writer draws its wv, applies it and appends its record in one critical
// section, so a scan after ClockNow sees every commit with wv ≤ the clock
// read, as a TL2 scan does.
type lockedSource struct {
	mu    sync.Mutex
	clock uint64
	state map[uint64]uint64
}

func (s *lockedSource) ClockNow() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

func (s *lockedSource) Scan(begin func(), put func(key, val uint64)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	begin()
	for k, v := range s.state {
		put(k, v)
	}
	return nil
}

// TestSnapshotRacesFlusherCycle: explicit Snapshot calls race the
// flusher's own cycles while relaxed writers append and wait, until both
// kinds of cycle have run several times. The cycles stay serialized: the
// directory ends with one valid snapshot and no snapshot.tmp, and every
// acked record is recovered.
func TestSnapshotRacesFlusherCycle(t *testing.T) {
	const threads, minCycles = 4, 3
	src := &lockedSource{state: map[uint64]uint64{}}
	dir := t.TempDir()
	l, _ := openT(t, Config{Dir: dir, Threads: threads, FsyncInterval: time.Millisecond, SnapshotEvery: 64, Source: src})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var explicit atomic.Uint64
	errs := make(chan error, threads+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Snapshot(); err != nil {
				errs <- err
				return
			}
			explicit.Add(1)
		}
	}()
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				src.mu.Lock()
				src.clock++
				wv := src.clock
				src.state[wv] = wv
				commitOne(l, th, wv, Op{Key: wv, Val: wv})
				src.mu.Unlock()
				if err := l.WaitThread(th); err != nil {
					errs <- err
					return
				}
			}
		}(th)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, _, snaps := l.Stats()
		ex := explicit.Load()
		if ex >= minCycles && snaps-ex >= minCycles || len(errs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("after 10s: %d explicit and %d flusher snapshot cycles, want %d of each", ex, snaps-ex, minCycles)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	l.Crash()
	if _, err := os.Stat(snapPath(dir) + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("snapshot.tmp left behind (stat: %v)", err)
	}
	if _, _, _, ok, err := readSnapshotFile(dir); !ok || err != nil {
		t.Fatalf("no valid snapshot: ok %v, err %v", ok, err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "snapshot*")); len(m) != 1 {
		t.Fatalf("snapshot files %v, want exactly one", m)
	}
	rec, err := Read(dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	m := rec.Apply()
	for v := uint64(1); v <= src.clock; v++ {
		if m[v] != v {
			t.Fatalf("acked key %d of %d lost (recovered %d keys)", v, src.clock, len(m))
		}
	}
}
