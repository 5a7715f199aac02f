// Package libtm is a from-scratch implementation of the LibTM software
// transactional memory used by SynQuake (Lupei et al., PPoPP'10), which the
// paper ports its guided execution onto. The original LibTM is proprietary
// (the paper's artifact appendix notes it cannot be disclosed), so this
// implementation follows the published description:
//
//   - object-granularity conflict detection with visible readers: every
//     transactional read registers in the object's reader list;
//   - fully optimistic detection: write locks are acquired at commit, and
//     reads proceed without blocking while a writer holds the object;
//   - abort-readers resolution: the committing writer dooms every
//     registered reader of the objects it writes.
//
// That is the one configuration the paper's experiments use. LibTM's
// pessimistic detection modes and its wait-for-readers resolution are not
// implemented.
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

// Config parameterizes a Runtime.
type Config struct {
	// Interleave, when positive, yields the processor with probability
	// 1/Interleave per transactional operation (see tl2.Config).
	Interleave int
}

const (
	// maxSpin bounds every wait loop (reader registration, commit-time
	// writer locks) before the waiter aborts itself, the
	// deadlock-avoidance rule.
	maxSpin = 64
)

// EventSink mirrors tl2.EventSink: the same tracing and guidance
// implementations satisfy both. wv is drawn from the package-global commit
// sequence; TxAbort names the dooming commit by its wv with known set, and
// reports the sequence's newest wv as a guess, known false, for an abort
// no commit doomed.
type EventSink interface {
	TxCommit(p txid.Pair, wv uint64, aborts int)
	TxAbort(p txid.Pair, byWV uint64, known bool)
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
