// Package obs is the variance observatory: an always-on, allocation-free
// per-transaction span tracer with tail attribution. Where the telemetry
// package answers "how is the system doing in aggregate", obs answers the
// paper's sharper question for a single slow request — *where did the time
// go*: server decode, thread-slot wait, gate hold, each STM attempt (and
// why it aborted), commit lock/validate/publish, WAL ack wait.
//
// The package is deliberately a leaf (stdlib only): the abort-cause
// taxonomy defined here is shared by internal/tl2, the telemetry counters,
// and the serving layer without import cycles. Spans are recorded by tl2
// alone; internal/libtm, which serves only the paper harness (SynQuake),
// borrows just the causes for its abort counters.
//
// Recording discipline: a Span is a fixed-size value owned by exactly one
// goroutine while it is being recorded (a thread slot's per-shard scratch span).
// Every record method is nil-safe — engine hot paths hold a possibly-nil
// *Span and pay one predictable branch when tracing is off — and none of
// them allocates; the zero-alloc property is CI-gated like internal/wset.
// Retention is decoupled from recording: every finished span feeds the
// per-shard per-phase aggregation, a ring of explicitly trace-requested
// spans, and a tail-triggered reservoir that keeps the K slowest spans per
// window.
package obs

// Cause is the abort/failure taxonomy threaded through the engines, the
// serving layer and telemetry. CauseNone marks success.
type Cause uint8

// Causes, in taxonomy order. NumCauses bounds cause-indexed arrays.
const (
	// CauseNone: the span (or attempt) succeeded.
	CauseNone Cause = iota
	// CauseReadValidation: commit-time (or read-time) version validation
	// observed a word newer than the transaction's read version.
	CauseReadValidation
	// CauseLockBusy: a lock word (a read's spin, the commit's write-set
	// lock sweep, or its read-set validation) stayed busy past the spin
	// bound or was held by another transaction.
	CauseLockBusy
	// CauseClockCAS: the GV4 clock CAS lost and the adopted winner's wv
	// forced a validation pass that then failed.
	CauseClockCAS
	// CauseGateTimeout: the guidance gate held the transaction until the
	// K-retry escape hatch forced it through.
	CauseGateTimeout
	// CauseRetryBudget: the per-transaction attempt budget ran out
	// (gstm.ErrRetryBudgetExhausted).
	CauseRetryBudget
	// CauseWALUnavailable: the shard's write-ahead log is in a terminal
	// failure state, so the operation's durability cannot be promised.
	CauseWALUnavailable
	// CauseCanceled: the transaction's context was canceled.
	CauseCanceled
	// CauseSpurious: a fault injector forced the abort (chaos tests).
	CauseSpurious
	// CauseWakeup: a blocking transaction's park ended because a commit
	// published a new version of a location it had read (tx.Retry). Stamped
	// on the park event of the span timeline, not on an abort — a wakeup is
	// the park succeeding, not the attempt failing.
	CauseWakeup
	// CauseXShardValidation: a cross-shard commit's prepare phase failed on
	// one participant — a sub-transaction's read set no longer validated
	// against its home clock, or a participant's write locks stayed busy —
	// so every participant aborted (all-or-nothing).
	CauseXShardValidation

	NumCauses
)

var causeNames = [NumCauses]string{
	"none",
	"read-validation",
	"lock-busy",
	"clock-cas",
	"gate-timeout",
	"retry-budget",
	"wal-unavailable",
	"canceled",
	"spurious",
	"wakeup",
	"cross-shard-validation",
}

func (c Cause) String() string {
	if c >= NumCauses {
		return "unknown"
	}
	return causeNames[c]
}

// CauseName returns the label for cause index i (for exporters iterating
// the taxonomy).
func CauseName(i int) string { return Cause(i).String() }

// Phase labels one timed segment of a request's life.
type Phase uint8

// Phases, in request order. NumPhases bounds phase-indexed arrays.
const (
	// PhaseDecode: reading and decoding the request frame off the socket.
	PhaseDecode Phase = iota
	// PhaseQueue: from the chunk's decode stamp to its batch's run: the
	// wait for the connection's home slot mutex plus the batches ahead of
	// it in the chunk (DESIGN.md "The reader's clock").
	PhaseQueue
	// PhaseGate: held at the guidance gate before the attempt started.
	PhaseGate
	// PhaseRetry: one aborted STM attempt (its Cause says why).
	PhaseRetry
	// PhaseLock: the successful commit's write-set lock acquisition.
	PhaseLock
	// PhaseValidate: the successful commit's read-set validation.
	PhaseValidate
	// PhasePublish: the successful commit's write publication + unlock.
	PhasePublish
	// PhaseWALAck: waiting for the write-ahead log to acknowledge the
	// commit record per the durability mode.
	PhaseWALAck
	// PhasePark: a blocking transaction (tx.Retry under WithBlocking) parked
	// on its read set, waiting for a commit to change something it read. The
	// event's Cause is CauseWakeup when a commit woke it, CauseCanceled when
	// the park context ended first.
	PhasePark
	// PhaseXPrepare: a cross-shard commit's prepare sweep — locking every
	// participant's write set and validating every read set, in ascending
	// shard order, before any shard publishes.
	PhaseXPrepare
	// PhaseXPublish: a cross-shard commit's publish sweep — the timestamp
	// exchange (every participant clock advanced to the agreed commit
	// point) followed by per-shard publication and lock release.
	PhaseXPublish

	NumPhases
)

var phaseNames = [NumPhases]string{
	"decode",
	"queue",
	"gate",
	"retry",
	"lock",
	"validate",
	"publish",
	"walack",
	"park",
	"xprepare",
	"xpublish",
}

func (p Phase) String() string {
	if p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseName returns the label for phase index i.
func PhaseName(i int) string { return Phase(i).String() }
