// Package faultinject is a deterministic, seeded fault injector for the
// STM engines' chaos tests. It implements the engines' FaultInjector hook
// (spurious aborts, delayed commits), the WAL's DiskFaults hook (fsync
// errors, torn writes, ENOSPC) and provides wrappers that degrade the
// instrumentation plane (stalled event sinks, starved gates).
//
// Every decision is a pure function of (seed, pair, attempt): fault
// schedules replay identically regardless of goroutine interleaving, so a
// failing chaos run can be reproduced from its seed alone. The injector
// deliberately has no mutable decision state — only observation counters.
package faultinject

import (
	"errors"
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

// DiskConfig parameterizes a DiskInjector. Zero probabilities disable the
// corresponding fault point; a zero ENOSPCAfterBytes disables the
// disk-full point.
type DiskConfig struct {
	// Seed keys every decision, like Config.Seed.
	Seed uint64

	// FsyncErrorProb is the probability that one fsync call fails with
	// ErrFsyncInjected. The log must fail closed: no acknowledgement may
	// be issued for records whose durability the failed fsync covered.
	FsyncErrorProb float64

	// TornWriteProb is the probability that one write(2) is torn: only a
	// deterministic prefix of the buffer reaches the file and the write
	// returns ErrTornWrite. Recovery must treat the torn bytes as a
	// garbage tail and never replay a partial record.
	TornWriteProb float64

	// ENOSPCAfterBytes, when positive, fails any write that would push the
	// file past this many cumulative bytes, writing only the part that
	// fits and returning ErrNoSpace — a deterministic disk-full cliff.
	ENOSPCAfterBytes int64
}

// Fault sentinels returned by the disk fault points.
var (
	ErrFsyncInjected = errors.New("faultinject: injected fsync error")
	ErrTornWrite     = errors.New("faultinject: injected torn write")
	ErrNoSpace       = errors.New("faultinject: injected ENOSPC")
)

// DiskInjector implements wal.DiskFaults: deterministic fault decisions
// for the write-ahead log's file operations. Like Injector, every
// decision is a pure function of (seed, op ordinal[, offset]) — the WAL
// numbers its writes and fsyncs, so a fault schedule replays identically
// regardless of flusher timing — and the injector keeps only observation
// counters.
type DiskInjector struct {
	cfg DiskConfig

	fsyncErrs  atomic.Uint64
	tornWrites atomic.Uint64
	noSpace    atomic.Uint64
}

// NewDisk returns a DiskInjector for cfg.
func NewDisk(cfg DiskConfig) *DiskInjector { return &DiskInjector{cfg: cfg} }

// Disk decision salts.
const (
	saltFsync = 0x1b873593
	saltTorn  = 0xcc9e2d51
)

// rollOp returns a deterministic uniform sample in [0,1) for disk
// operation ordinal op under salt.
func (d *DiskInjector) rollOp(salt, op uint64) float64 {
	h := mix(d.cfg.Seed ^ salt ^ op)
	return float64(h>>11) / (1 << 53)
}

// WriteFault decides the fate of write ordinal op, which would append n
// bytes at file offset off. It returns how many bytes the caller must
// actually write and a non-nil error when the write is to be reported
// failed (torn or out of space). The returned prefix MUST still reach the
// file: a torn write is precisely a failure that left bytes behind.
func (d *DiskInjector) WriteFault(op uint64, off int64, n int) (int, error) {
	if d == nil {
		return n, nil
	}
	if lim := d.cfg.ENOSPCAfterBytes; lim > 0 && off+int64(n) > lim {
		keep := lim - off
		if keep < 0 {
			keep = 0
		}
		d.noSpace.Add(1)
		return int(keep), ErrNoSpace
	}
	if d.cfg.TornWriteProb > 0 && d.rollOp(saltTorn, op) < d.cfg.TornWriteProb {
		// Deterministic cut point strictly inside the buffer.
		cut := int(mix(d.cfg.Seed^saltTorn^op^0xabcd) % uint64(n))
		d.tornWrites.Add(1)
		return cut, ErrTornWrite
	}
	return n, nil
}

// FsyncFault decides the fate of fsync ordinal op.
func (d *DiskInjector) FsyncFault(op uint64) error {
	if d == nil || d.cfg.FsyncErrorProb <= 0 {
		return nil
	}
	if d.rollOp(saltFsync, op) < d.cfg.FsyncErrorProb {
		d.fsyncErrs.Add(1)
		return ErrFsyncInjected
	}
	return nil
}

// DiskCounts reports how many disk faults of each kind were injected.
func (d *DiskInjector) DiskCounts() (fsyncErrs, tornWrites, noSpace uint64) {
	return d.fsyncErrs.Load(), d.tornWrites.Load(), d.noSpace.Load()
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
