package wal

import (
	"errors"
	"testing"
	"time"

	"gstm/internal/faultinject"
)

// TestFsyncErrorFailsClosed: a strict-mode log whose fsync fails must
// refuse the ack (fail closed) — acknowledging a record whose durability
// the failed fsync covered would break the recovery contract.
func TestFsyncErrorFailsClosed(t *testing.T) {
	inj := faultinject.NewDiskRolls(faultinject.DiskConfig{Seed: 42, FsyncErrorProb: 1})
	l, _ := openT(t, Config{Dir: t.TempDir(), Threads: 1, FS: faultinject.NewDisk(OSFS{}, inj.Rule)})
	commitOne(l, 0, 1, Op{Key: 1, Val: 1})
	err := l.WaitThread(0)
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("WaitThread = %v, want ErrFailed", err)
	}
	if !errors.Is(err, faultinject.ErrFsyncInjected) {
		t.Fatalf("terminal error should carry the cause, got %v", err)
	}
	if !l.Failed() {
		t.Fatal("log should be terminally failed after an fsync error")
	}
	fsyncErrs, _, _ := inj.DiskCounts()
	if fsyncErrs == 0 {
		t.Fatal("chaos run injected no fsync errors — proves nothing")
	}
	_ = l.Close()
}

// TestTornWriteRecoversPrefix: a torn write leaves a prefix of the batch
// on disk; the log fails closed and recovery salvages exactly the records
// whose frames survived intact — an append-order prefix, never a partial
// record.
func TestTornWriteRecoversPrefix(t *testing.T) { tornWriteRecoversPrefix(t, 0) }

// TestRelaxedTornWriteRecoversPrefix: the same with the torn write made by
// the waiter itself, which must get the failure back from its own wait.
func TestRelaxedTornWriteRecoversPrefix(t *testing.T) { tornWriteRecoversPrefix(t, time.Hour) }

func tornWriteRecoversPrefix(t *testing.T, fsyncInterval time.Duration) {
	dir := t.TempDir()
	inj := faultinject.NewDiskRolls(faultinject.DiskConfig{Seed: 7, TornWriteProb: 1})
	// The segment header, its file's write 0, goes through: a log whose
	// Open cannot write its header takes no record to tear.
	pastHeader := func(op faultinject.DiskOp) (int, error) {
		if op.Kind == faultinject.OpWrite && op.Seq == 0 {
			return op.Len, nil
		}
		return inj.Rule(op)
	}
	l, _ := openT(t, Config{Dir: dir, Threads: 1, FsyncInterval: fsyncInterval, FS: faultinject.NewDisk(OSFS{}, pastHeader)})
	var wvs []uint64
	for wv := uint64(1); wv <= 16; wv++ {
		commitOne(l, 0, wv, Op{Key: wv, Val: wv * 2})
		wvs = append(wvs, wv)
	}
	if err := l.WaitThread(0); !errors.Is(err, ErrFailed) {
		t.Fatalf("WaitThread = %v, want ErrFailed after torn write", err)
	}
	_, torn, _ := inj.DiskCounts()
	if torn == 0 {
		t.Fatal("no torn writes injected")
	}
	_ = l.Close()

	_, rec := openT(t, Config{Dir: dir, Threads: 1})
	if rec.Replayed() >= 16 {
		t.Fatalf("recovered %d records through a torn write of the whole batch", rec.Replayed())
	}
	for i, c := range rec.Commits {
		if c.WV != wvs[i] {
			t.Fatalf("recovered records are not an append-order prefix: got wv %d at %d", c.WV, i)
		}
		if c.Ops[0].Val != c.WV*2 {
			t.Fatalf("partial record replayed: %+v", c)
		}
	}
}

// TestENOSPCFailsClosed: the deterministic disk-full cliff fails the log;
// everything acked before the cliff recovers.
func TestENOSPCFailsClosed(t *testing.T) { enospcFailsClosed(t, 0) }

// TestRelaxedENOSPCFailsClosed: the same with the waiters writing their
// own records.
func TestRelaxedENOSPCFailsClosed(t *testing.T) { enospcFailsClosed(t, time.Hour) }

func enospcFailsClosed(t *testing.T, fsyncInterval time.Duration) {
	dir := t.TempDir()
	inj := faultinject.NewDiskRolls(faultinject.DiskConfig{Seed: 3, ENOSPCAfterBytes: 256})
	l, _ := openT(t, Config{Dir: dir, Threads: 1, FsyncInterval: fsyncInterval})
	// First fill a healthy log, then reopen it with the cliff armed: the
	// acked records predate the failure.
	for wv := uint64(1); wv <= 4; wv++ {
		commitOne(l, 0, wv, Op{Key: wv, Val: wv})
		if err := l.WaitThread(0); err != nil {
			t.Fatalf("WaitThread: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := openT(t, Config{Dir: dir, Threads: 1, FsyncInterval: fsyncInterval, FS: faultinject.NewDisk(OSFS{}, inj.Rule)})
	if rec.Replayed() != 4 {
		t.Fatalf("recovered %d, want 4", rec.Replayed())
	}
	failed := false
	for wv := uint64(5); wv <= 64; wv++ {
		commitOne(l2, 0, wv, Op{Key: wv, Val: wv})
		if err := l2.WaitThread(0); err != nil {
			if !errors.Is(err, ErrFailed) {
				t.Fatalf("WaitThread = %v, want ErrFailed", err)
			}
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("log never hit the 256-byte ENOSPC cliff")
	}
	_, _, noSpace := inj.DiskCounts()
	if noSpace == 0 {
		t.Fatal("no ENOSPC injected")
	}
	_ = l2.Close()

	// The pre-cliff records are still recoverable.
	_, rec2 := openT(t, Config{Dir: dir, Threads: 1})
	if rec2.Replayed() < 4 {
		t.Fatalf("lost pre-cliff records: %d", rec2.Replayed())
	}
	m := rec2.Apply()
	for wv := uint64(1); wv <= 4; wv++ {
		if m[wv] != wv {
			t.Fatalf("acked key %d lost across ENOSPC failure", wv)
		}
	}
}
