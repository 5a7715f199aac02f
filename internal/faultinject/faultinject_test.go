package faultinject

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gstm/internal/txid"
	"gstm/internal/wal"
)

func pairOf(txn, thread int) txid.Pair {
	return txid.Pair{Txn: txid.TxnID(txn), Thread: txid.ThreadID(thread)}
}

// TestInjectorDeterminism: two injectors with the same config make
// identical decisions for every (pair, attempt); a different seed makes a
// different schedule. This is the property that lets a failing chaos run
// be replayed from its seed.
func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, SpuriousAbortProb: 0.3, CommitDelayProb: 0.3}
	a, b := New(cfg), New(cfg)
	other := New(Config{Seed: 43, SpuriousAbortProb: 0.3, CommitDelayProb: 0.3})

	differs := false
	for txn := 0; txn < 16; txn++ {
		for th := 0; th < 8; th++ {
			p := pairOf(txn, th)
			for attempt := 0; attempt < 8; attempt++ {
				if a.SpuriousAbort(p, attempt) != b.SpuriousAbort(p, attempt) {
					t.Fatalf("abort decision diverged at %v attempt %d", p, attempt)
				}
				if a.CommitDelay(p, attempt) != b.CommitDelay(p, attempt) {
					t.Fatalf("delay decision diverged at %v attempt %d", p, attempt)
				}
				if a.SpuriousAbort(p, attempt) != other.SpuriousAbort(p, attempt) {
					differs = true
				}
			}
		}
	}
	if !differs {
		t.Fatal("different seeds produced an identical abort schedule")
	}
	ca, _ := a.Counts()
	cb, _ := b.Counts()
	// Counts differ by the extra a.SpuriousAbort call in the seed-compare
	// branch; decisions are stateless so both saw the same schedule twice.
	if ca == 0 || cb == 0 {
		t.Fatalf("no faults fired at p=0.3 over 1024 decisions (counts %d/%d)", ca, cb)
	}
}

// TestInjectorRates: over many decisions the empirical fault rate must be
// in the right ballpark of the configured probability, and decisions for
// the two fault points must be independent (different salts).
func TestInjectorRates(t *testing.T) {
	inj := New(Config{Seed: 7, SpuriousAbortProb: 0.25, CommitDelayProb: 0.25, CommitDelayYields: 9})
	const n = 20000
	aborts, delays, both := 0, 0, 0
	for i := 0; i < n; i++ {
		p := pairOf(i%1024, i/1024)
		ab := inj.SpuriousAbort(p, i%7)
		d := inj.CommitDelay(p, i%7)
		if ab {
			aborts++
		}
		if d != 0 {
			if d != 9 {
				t.Fatalf("delay = %d, want configured 9", d)
			}
			delays++
		}
		if ab && d != 0 {
			both++
		}
	}
	check := func(name string, got int) {
		rate := float64(got) / n
		if rate < 0.20 || rate > 0.30 {
			t.Fatalf("%s rate = %.3f, want ≈0.25", name, rate)
		}
	}
	check("abort", aborts)
	check("delay", delays)
	// Independent salts: joint rate ≈ 0.0625, not ≈ 0.25 (which perfect
	// correlation would give).
	if joint := float64(both) / n; joint > 0.12 {
		t.Fatalf("fault points correlated: joint rate %.3f", joint)
	}
	ca, cd := inj.Counts()
	if int(ca) != aborts || int(cd) != delays {
		t.Fatalf("Counts() = %d/%d, observed %d/%d", ca, cd, aborts, delays)
	}
}

// TestZeroProbabilityNeverFires: a zero-valued config is a no-op injector.
func TestZeroProbabilityNeverFires(t *testing.T) {
	inj := New(Config{Seed: 1})
	for i := 0; i < 1000; i++ {
		if inj.SpuriousAbort(pairOf(i, 0), 0) {
			t.Fatal("SpuriousAbort fired at p=0")
		}
		if inj.CommitDelay(pairOf(i, 0), 0) != 0 {
			t.Fatal("CommitDelay fired at p=0")
		}
	}
	if a, d := inj.Counts(); a != 0 || d != 0 {
		t.Fatalf("counts = %d/%d, want 0/0", a, d)
	}
}

// diskRuling is one ruling of a DiskRolls, as a DiskInjector asked for it.
type diskRuling struct {
	kind DiskOpKind
	seq  uint64
	off  int64
	keep int
	err  error
}

// writeFiles writes and fsyncs files a and b in dir through one
// DiskInjector ruled by the seeded rule for cfg: order lists, by file
// name, which file takes the next 100-byte write and fsync. It returns
// each file's rulings in order and its size on disk.
func writeFiles(t *testing.T, cfg DiskConfig, order string) (map[string][]diskRuling, map[string]int64) {
	t.Helper()
	dir := t.TempDir()
	rolls := NewDiskRolls(cfg)
	rulings := map[string][]diskRuling{}
	d := NewDisk(wal.OSFS{}, func(op DiskOp) (int, error) {
		keep, err := rolls.Rule(op)
		if op.Kind == OpWrite || op.Kind == OpSync {
			name := filepath.Base(op.Path)
			rulings[name] = append(rulings[name], diskRuling{op.Kind, op.Seq, op.Off, keep, err})
		}
		return keep, err
	})
	files := map[rune]File{}
	for _, name := range "ab" {
		f, err := d.OpenFile(filepath.Join(dir, string(name)), os.O_CREATE|os.O_EXCL|os.O_WRONLY)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	buf := make([]byte, 100)
	for _, name := range order {
		_, _ = files[name].Write(buf) // a fault is a ruling, recorded above
		_ = files[name].Sync()
	}
	sizes := map[string]int64{}
	for name, f := range files {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, string(name)))
		if err != nil {
			t.Fatal(err)
		}
		sizes[string(name)] = st.Size()
	}
	return rulings, sizes
}

// TestDiskRollsReplay: the seeded disk rule is a pure function of the
// seed, the file's name, the op's ordinal in its file and the write's
// offset. Each file gets the same rulings from a second injector of the
// same seed and whichever way the two files' operations interleave; both
// outcomes occur at p=0.3; another seed gives another schedule.
func TestDiskRollsReplay(t *testing.T) {
	cfg := DiskConfig{Seed: 5, FsyncErrorProb: 0.3, TornWriteProb: 0.3}
	alternating := strings.Repeat("ab", 32)
	grouped := strings.Repeat("a", 32) + strings.Repeat("b", 32)
	ref, _ := writeFiles(t, cfg, alternating)
	for _, order := range []string{alternating, grouped} {
		if got, _ := writeFiles(t, cfg, order); !reflect.DeepEqual(got, ref) {
			t.Fatalf("order %q ruled differently:\n got %v\nwant %v", order, got, ref)
		}
	}
	faults := map[DiskOpKind]int{}
	for _, rs := range ref {
		for _, r := range rs {
			if r.err != nil {
				faults[r.kind]++
			}
		}
	}
	if n := faults[OpWrite]; n == 0 || n == 64 {
		t.Fatalf("%d of 64 writes torn at p=0.3", n)
	}
	if n := faults[OpSync]; n == 0 || n == 64 {
		t.Fatalf("%d of 64 fsyncs failed at p=0.3", n)
	}
	if reflect.DeepEqual(ref["a"], ref["b"]) {
		t.Fatal("two file names drew the same schedule")
	}
	cfg.Seed++
	if other, _ := writeFiles(t, cfg, alternating); reflect.DeepEqual(other, ref) {
		t.Fatal("another seed drew the same schedule")
	}
}

// TestDiskRollsENOSPCPerFile: the disk-full cliff cuts each file at its
// own offset: the write that crosses it keeps the part that fits, and the
// other file's bytes do not count against it.
func TestDiskRollsENOSPCPerFile(t *testing.T) {
	rulings, sizes := writeFiles(t, DiskConfig{Seed: 1, ENOSPCAfterBytes: 250}, "abab"+"ab")
	for _, name := range []string{"a", "b"} {
		if sizes[name] != 250 {
			t.Fatalf("file %s holds %d bytes, want the 250 below the cliff", name, sizes[name])
		}
		var writes []diskRuling
		for _, r := range rulings[name] {
			if r.kind == OpWrite {
				writes = append(writes, r)
			}
		}
		want := []diskRuling{
			{OpWrite, 0, 0, 100, nil},
			{OpWrite, 1, 100, 100, nil},
			{OpWrite, 2, 200, 50, ErrNoSpace},
		}
		if !reflect.DeepEqual(writes, want) {
			t.Fatalf("file %s writes ruled %v, want %v", name, writes, want)
		}
	}
}
