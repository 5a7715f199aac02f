// Package faultinject is a deterministic, seeded fault injector for the
// STM engines' and the write-ahead log's chaos tests. It implements the
// engines' FaultInjector hook (spurious aborts, delayed commits), provides
// the log's fault-injecting file system (DiskInjector, a wal.FS that asks
// a rule before each file operation: the seeded DiskRolls — fsync errors,
// torn writes, ENOSPC — or a test's own rule, recording or gating
// operations), and provides wrappers that degrade the instrumentation
// plane (stalled event sinks, starved gates).
//
// Every seeded decision is a pure function of (seed, pair, attempt) or,
// on disk, of (seed, file name, the op's ordinal in its file, offset):
// fault schedules replay identically regardless of goroutine
// interleaving, so a failing chaos run can be reproduced from its seed
// alone. The injectors deliberately have no mutable decision state — only
// observation counters.
package faultinject

import (
	"errors"
	"strings"
	"sync/atomic"

	"gstm/internal/telemetry"
	"gstm/internal/txid"
	"gstm/internal/yield"
)

// Config parameterizes an Injector. Zero probabilities disable the
// corresponding fault point.
type Config struct {
	// Seed keys every decision; two injectors with the same Seed and
	// probabilities produce the same fault schedule.
	Seed uint64

	// SpuriousAbortProb is the probability that a cleanly-executed attempt
	// is forced to abort and retry before its commit protocol runs.
	SpuriousAbortProb float64

	// CommitDelayProb is the probability that a commit holds its write
	// locks for CommitDelayYields extra scheduler yields before
	// publishing, widening the mid-commit window.
	CommitDelayProb float64

	// CommitDelayYields is the delay length; zero selects 4.
	CommitDelayYields int
}

// Injector implements tl2.FaultInjector and libtm.FaultInjector (the
// interfaces are structurally identical).
type Injector struct {
	cfg Config

	aborts atomic.Uint64
	delays atomic.Uint64
}

// New returns an Injector for cfg.
func New(cfg Config) *Injector {
	if cfg.CommitDelayYields <= 0 {
		cfg.CommitDelayYields = 4
	}
	return &Injector{cfg: cfg}
}

// Decision salts: distinct fault points must draw independent rolls.
const (
	saltAbort = 0x5bd1e995
	saltDelay = 0x27d4eb2f
)

// mix is the splitmix64 finalizer: a full-avalanche 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll returns a deterministic uniform sample in [0,1) for the decision
// identified by (salt, p, attempt).
func (i *Injector) roll(salt uint64, p txid.Pair, attempt int) float64 {
	h := mix(i.cfg.Seed ^ salt ^ uint64(p.Pack())<<20 ^ uint64(uint32(attempt)))
	return float64(h>>11) / (1 << 53)
}

// SpuriousAbort implements the engines' pre-commit fault point.
func (i *Injector) SpuriousAbort(p txid.Pair, attempt int) bool {
	if i.cfg.SpuriousAbortProb <= 0 {
		return false
	}
	if i.roll(saltAbort, p, attempt) < i.cfg.SpuriousAbortProb {
		i.aborts.Add(1)
		return true
	}
	return false
}

// CommitDelay implements the engines' mid-commit fault point.
func (i *Injector) CommitDelay(p txid.Pair, attempt int) int {
	if i.cfg.CommitDelayProb <= 0 {
		return 0
	}
	if i.roll(saltDelay, p, attempt) < i.cfg.CommitDelayProb {
		i.delays.Add(1)
		return i.cfg.CommitDelayYields
	}
	return 0
}

// Counts reports how many faults of each kind were actually injected.
// Chaos tests assert these are nonzero — a chaos run whose injector never
// fired proves nothing.
func (i *Injector) Counts() (spuriousAborts, commitDelays uint64) {
	return i.aborts.Load(), i.delays.Load()
}

// File mirrors wal.File. Both name this one unnamed interface type, so a
// DiskInjector's files are wal Files without this package importing wal
// (whose own tests import this package).
type File = interface {
	Write(p []byte) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS mirrors wal.FS: every wal.FS is an FS, and a DiskInjector is a
// wal.FS.
type FS interface {
	MkdirAll(dir string) error
	OpenFile(name string, flag int) (File, error)
	ReadFile(name string) ([]byte, error)
	Glob(pattern string) ([]string, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	SyncDir(dir string) error
}

// DiskOpKind names one kind of file-system operation.
type DiskOpKind uint8

// The operations a DiskInjector rules on: one per FS and File method that
// can change the disk, Write and WriteAt sharing OpWrite.
const (
	OpMkdirAll DiskOpKind = iota
	OpOpen
	OpRename
	OpRemove
	OpSyncDir
	OpWrite
	OpTruncate
	OpSync
	OpClose
)

var diskOpNames = [...]string{"mkdirall", "open", "rename", "remove", "syncdir", "write", "truncate", "sync", "close"}

func (k DiskOpKind) String() string { return diskOpNames[k] }

// DiskOp is one file-system operation as a DiskInjector's rule sees it,
// before it runs.
type DiskOp struct {
	Kind DiskOpKind
	// Path is the file or directory operated on (for OpRename, the old
	// name).
	Path string
	// Seq numbers an OpWrite among its file's writes, or an OpSync among
	// its file's fsyncs, from 0 for each opened file.
	Seq uint64
	// Off and Len are an OpWrite's file offset and byte count.
	Off int64
	Len int
}

// DiskRule rules on op before it runs: a non-nil error fails the op
// without running it, except that a failed write first writes its keep
// leading bytes (0 ≤ keep < op.Len), the torn prefix a crash mid-write
// leaves. keep is ignored when err is nil.
type DiskRule func(op DiskOp) (keep int, err error)

// DiskInjector is an FS that passes every operation to an inner FS, each
// one that can change the disk only once its rule allows it. It is the
// one fault-injecting file system of the write-ahead log's tests: the
// seeded DiskRolls, an op recorder or a hand-written fault are all rules.
type DiskInjector struct {
	inner FS
	rule  DiskRule
}

// NewDisk returns a DiskInjector ruling with rule over inner (wal.OSFS{}
// for the real disk).
func NewDisk(inner FS, rule DiskRule) *DiskInjector {
	return &DiskInjector{inner: inner, rule: rule}
}

// allow asks the rule about an operation on a name (not a file's data).
func (d *DiskInjector) allow(kind DiskOpKind, path string) error {
	_, err := d.rule(DiskOp{Kind: kind, Path: path})
	return err
}

func (d *DiskInjector) MkdirAll(dir string) error {
	if err := d.allow(OpMkdirAll, dir); err != nil {
		return err
	}
	return d.inner.MkdirAll(dir)
}

func (d *DiskInjector) OpenFile(name string, flag int) (File, error) {
	if err := d.allow(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := d.inner.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &injectedFile{f: f, path: name, rule: d.rule}, nil
}

// ReadFile and Glob change nothing on disk; they pass straight through.
func (d *DiskInjector) ReadFile(name string) ([]byte, error)  { return d.inner.ReadFile(name) }
func (d *DiskInjector) Glob(pattern string) ([]string, error) { return d.inner.Glob(pattern) }

func (d *DiskInjector) Rename(oldname, newname string) error {
	if err := d.allow(OpRename, oldname); err != nil {
		return err
	}
	return d.inner.Rename(oldname, newname)
}

func (d *DiskInjector) Remove(name string) error {
	if err := d.allow(OpRemove, name); err != nil {
		return err
	}
	return d.inner.Remove(name)
}

func (d *DiskInjector) SyncDir(dir string) error {
	if err := d.allow(OpSyncDir, dir); err != nil {
		return err
	}
	return d.inner.SyncDir(dir)
}

// injectedFile is a DiskInjector's open file. It numbers its own writes
// and fsyncs, so a rule's decisions for one file do not depend on how the
// log's goroutines interleave operations on others. The log serializes
// the operations on one file.
type injectedFile struct {
	f      File
	path   string
	rule   DiskRule
	off    int64 // where the next Write lands
	writes uint64
	syncs  uint64
}

func (f *injectedFile) Write(p []byte) (int, error) {
	n, err := f.write(p, f.off, f.f.Write)
	f.off += int64(n)
	return n, err
}

func (f *injectedFile) WriteAt(p []byte, off int64) (int, error) {
	return f.write(p, off, func(b []byte) (int, error) { return f.f.WriteAt(b, off) })
}

func (f *injectedFile) write(p []byte, off int64, do func([]byte) (int, error)) (int, error) {
	keep, err := f.rule(DiskOp{Kind: OpWrite, Path: f.path, Seq: f.writes, Off: off, Len: len(p)})
	f.writes++
	if err == nil {
		return do(p)
	}
	n := 0
	if keep > 0 {
		n, _ = do(p[:keep]) // the torn prefix really reaches the file
	}
	return n, err
}

func (f *injectedFile) Truncate(size int64) error {
	if _, err := f.rule(DiskOp{Kind: OpTruncate, Path: f.path}); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *injectedFile) Sync() error {
	_, err := f.rule(DiskOp{Kind: OpSync, Path: f.path, Seq: f.syncs})
	f.syncs++
	if err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *injectedFile) Close() error {
	if _, err := f.rule(DiskOp{Kind: OpClose, Path: f.path}); err != nil {
		return err
	}
	return f.f.Close()
}

// DiskConfig parameterizes a DiskRolls. Zero probabilities disable the
// corresponding fault point; a zero ENOSPCAfterBytes disables the
// disk-full point.
type DiskConfig struct {
	// Seed keys every decision, like Config.Seed.
	Seed uint64

	// FsyncErrorProb is the probability that one file fsync fails with
	// ErrFsyncInjected. The log must fail closed: no acknowledgement may
	// be issued for records whose durability the failed fsync covered.
	FsyncErrorProb float64

	// TornWriteProb is the probability that one write is torn: only a
	// deterministic prefix of the buffer reaches the file and the write
	// returns ErrTornWrite. Recovery must treat the torn bytes as a
	// garbage tail and never replay a partial record.
	TornWriteProb float64

	// ENOSPCAfterBytes, when positive, fails any write that would push its
	// file past this offset, writing only the part that fits and
	// returning ErrNoSpace — a deterministic disk-full cliff per file.
	ENOSPCAfterBytes int64
}

// Fault sentinels returned by the disk fault points.
var (
	ErrFsyncInjected = errors.New("faultinject: injected fsync error")
	ErrTornWrite     = errors.New("faultinject: injected torn write")
	ErrNoSpace       = errors.New("faultinject: injected ENOSPC")
)

// DiskRolls is the seeded DiskRule: fsync errors, torn writes and a
// disk-full cliff on file writes and fsyncs, every other op allowed. Like
// Injector, each decision is a pure function — of the seed, the file's
// base name, the op's per-file ordinal and the write's offset — so one
// DiskRolls shared by every shard's log replays identically whatever the
// flusher timing, and it keeps only observation counters.
type DiskRolls struct {
	cfg DiskConfig

	fsyncErrs  atomic.Uint64
	tornWrites atomic.Uint64
	noSpace    atomic.Uint64
}

// NewDiskRolls returns the seeded rule for cfg; pass its Rule to NewDisk.
func NewDiskRolls(cfg DiskConfig) *DiskRolls { return &DiskRolls{cfg: cfg} }

// Disk decision salts.
const (
	saltFsync = 0x1b873593
	saltTorn  = 0xcc9e2d51
)

// key identifies op's decision under salt: the file's base name, hashed
// (FNV-1a), and the op's ordinal in that file.
func (r *DiskRolls) key(salt uint64, op DiskOp) uint64 {
	h := uint64(14695981039346656037)
	for i := strings.LastIndexByte(op.Path, '/') + 1; i < len(op.Path); i++ {
		h = (h ^ uint64(op.Path[i])) * 1099511628211
	}
	return mix(mix(r.cfg.Seed^salt^h) ^ op.Seq)
}

// roll returns a deterministic uniform sample in [0,1) for op under salt.
func (r *DiskRolls) roll(salt uint64, op DiskOp) float64 {
	return float64(r.key(salt, op)>>11) / (1 << 53)
}

// Rule is the DiskRule.
func (r *DiskRolls) Rule(op DiskOp) (int, error) {
	switch op.Kind {
	case OpWrite:
		if lim := r.cfg.ENOSPCAfterBytes; lim > 0 && op.Off+int64(op.Len) > lim {
			r.noSpace.Add(1)
			return int(max(lim-op.Off, 0)), ErrNoSpace
		}
		if op.Len > 0 && r.cfg.TornWriteProb > 0 && r.roll(saltTorn, op) < r.cfg.TornWriteProb {
			// Deterministic cut point strictly inside the buffer.
			r.tornWrites.Add(1)
			return int(mix(r.key(saltTorn, op)^0xabcd) % uint64(op.Len)), ErrTornWrite
		}
	case OpSync:
		if r.cfg.FsyncErrorProb > 0 && r.roll(saltFsync, op) < r.cfg.FsyncErrorProb {
			r.fsyncErrs.Add(1)
			return 0, ErrFsyncInjected
		}
	}
	return op.Len, nil
}

// DiskCounts reports how many disk faults of each kind were injected.
func (r *DiskRolls) DiskCounts() (fsyncErrs, tornWrites, noSpace uint64) {
	return r.fsyncErrs.Load(), r.tornWrites.Load(), r.noSpace.Load()
}

// Sink mirrors tl2.EventSink / libtm.EventSink structurally so the
// wrappers below satisfy both.
type Sink interface {
	TxCommit(p txid.Pair, wv uint64, aborts int)
	TxAbort(p txid.Pair, byWV uint64, known bool)
}

// Gate mirrors tl2.Gate / libtm.Gate.
type Gate interface {
	Arrive(p txid.Pair) telemetry.GateOutcome
}

// StallingSink delays every event delivery by a fixed number of scheduler
// yields before forwarding to the inner sink — a slow observer. The STM
// must keep making progress; only measurement latency may suffer.
type StallingSink struct {
	inner  Sink
	yields int
	events atomic.Uint64
}

// NewStallingSink wraps inner with the given per-event stall.
func NewStallingSink(inner Sink, yields int) *StallingSink {
	return &StallingSink{inner: inner, yields: yields}
}

// Events returns how many events passed through the stall.
func (s *StallingSink) Events() uint64 { return s.events.Load() }

func (s *StallingSink) stall() {
	s.events.Add(1)
	yield.N(s.yields)
}

// TxCommit implements Sink.
func (s *StallingSink) TxCommit(p txid.Pair, wv uint64, aborts int) {
	s.stall()
	if s.inner != nil {
		s.inner.TxCommit(p, wv, aborts)
	}
}

// TxAbort implements Sink.
func (s *StallingSink) TxAbort(p txid.Pair, byWV uint64, known bool) {
	s.stall()
	if s.inner != nil {
		s.inner.TxAbort(p, byWV, known)
	}
}

// StarvingGate holds every arrival for a fixed number of scheduler yields
// before (optionally) delegating to an inner gate — an adversarially slow
// scheduler. Transactions must still complete, just later.
type StarvingGate struct {
	inner    Gate
	yields   int
	arrivals atomic.Uint64
}

// NewStarvingGate wraps inner (which may be nil) with the given per-arrival
// starvation.
func NewStarvingGate(inner Gate, yields int) *StarvingGate {
	return &StarvingGate{inner: inner, yields: yields}
}

// Arrivals returns how many arrivals were starved.
func (g *StarvingGate) Arrivals() uint64 { return g.arrivals.Load() }

// Arrive implements Gate.
func (g *StarvingGate) Arrive(p txid.Pair) telemetry.GateOutcome {
	g.arrivals.Add(1)
	yield.N(g.yields)
	if g.inner != nil {
		out := g.inner.Arrive(p)
		if out == telemetry.GatePass && g.yields > 0 {
			out = telemetry.GateHold
		}
		return out
	}
	if g.yields > 0 {
		return telemetry.GateHold
	}
	return telemetry.GatePass
}
