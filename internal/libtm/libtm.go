// Package libtm is a from-scratch implementation of the LibTM software
// transactional memory used by SynQuake (Lupei et al., PPoPP'10), which the
// paper ports its guided execution onto. The original LibTM is proprietary
// (the paper's artifact appendix notes it cannot be disclosed), so this
// implementation follows the published description:
//
//   - object-granularity conflict detection with visible readers: every
//     transactional read registers in the object's reader list;
//   - four conflict-detection modes, from fully pessimistic (read and
//     write locks acquired at access time) to fully optimistic (write
//     locks acquired at commit, reads proceed without blocking);
//   - two conflict-resolution policies for the writer/reader edge:
//     abort-readers (the committing writer dooms every registered reader)
//     and wait-for-readers (the writer waits for readers to drain).
//
// The paper's experiments use fully-optimistic detection with
// abort-readers resolution; the other modes exist for completeness and are
// covered by tests and ablation benches.
//
// Like internal/tl2, the runtime exposes the commit/abort event stream and
// a start gate so the tracing and guidance layers plug in unchanged —
// "guided STM ported for our experiments" (Section VIII). It serves only
// the paper harness (internal/synquake, internal/harness): no context,
// retry budget, span, blocking or cross-shard commit — the serving path
// runs on internal/tl2.
package libtm

import (
	"sync/atomic"

	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

// ReadMode selects how reads detect conflicts.
type ReadMode int

// Read modes.
const (
	// ReadOptimistic registers the reader and proceeds even when a writer
	// holds the object.
	ReadOptimistic ReadMode = iota
	// ReadPessimistic blocks (bounded) while a writer holds the object.
	ReadPessimistic
)

// WriteMode selects when write locks are acquired.
type WriteMode int

// Write modes.
const (
	// WriteCommitTime acquires write locks during commit (optimistic).
	WriteCommitTime WriteMode = iota
	// WriteEncounterTime acquires write locks at the first Write
	// (pessimistic); write-write conflicts surface immediately.
	WriteEncounterTime
)

// Resolution selects how a committing writer treats registered readers.
type Resolution int

// Resolution policies.
const (
	// AbortReaders dooms every conflicting reader (they abort and retry).
	AbortReaders Resolution = iota
	// WaitForReaders stalls the writer (bounded) until readers drain.
	WaitForReaders
)

// Config parameterizes a Runtime. The zero value is the paper's
// configuration: fully optimistic with abort-readers.
type Config struct {
	ReadMode   ReadMode
	WriteMode  WriteMode
	Resolution Resolution

	// MaxSpin bounds every wait loop (writer locks, reader drains) before
	// the waiter aborts itself, the deadlock-avoidance rule.
	MaxSpin int

	// Interleave, when positive, yields the processor with probability
	// 1/Interleave per transactional operation (see tl2.Config).
	Interleave int

	// RegistryCapacity sizes the wv→committer attribution ring.
	RegistryCapacity int
}

// Normalize returns cfg with defaults applied.
func (cfg Config) Normalize() Config {
	if cfg.MaxSpin <= 0 {
		cfg.MaxSpin = 64
	}
	if cfg.RegistryCapacity <= 0 {
		cfg.RegistryCapacity = 1 << 14
	}
	return cfg
}

// EventSink mirrors tl2.EventSink: the same tracing and guidance
// implementations satisfy both.
type EventSink interface {
	TxCommit(p txid.Pair, wv uint64, aborts int)
	TxAbort(p txid.Pair, byWV uint64, by txid.Pair, byKnown bool)
}

// Gate mirrors tl2.Gate.
type Gate interface {
	Arrive(p txid.Pair) telemetry.GateOutcome
}

// FaultInjector mirrors tl2.FaultInjector: the chaos-testing hook
// implemented by internal/faultinject. One injector value satisfies both
// engines' interfaces structurally.
type FaultInjector interface {
	// SpuriousAbort forces a cleanly-executed attempt to abort and retry.
	SpuriousAbort(p txid.Pair, attempt int) bool
	// CommitDelay returns extra scheduler yields inserted while the commit
	// holds its write locks.
	CommitDelay(p txid.Pair, attempt int) int
}

// seq is the package-global commit sequence for libtm runtimes (the
// analogue of tl2's global version clock; libtm itself versions objects per
// commit and only needs a global order for the event stream).
var seq atomic.Uint64
