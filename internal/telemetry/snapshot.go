package telemetry

import (
	"sort"
	"time"

	"gstm/internal/obs"
)

// GateStateSnapshot is the gate telemetry of one automaton state.
type GateStateSnapshot struct {
	State   string `json:"state"`
	Visits  uint64 `json:"visits"`
	Holds   uint64 `json:"holds"`
	Escapes uint64 `json:"escapes"`
}

// Snapshot is the stable exported view of the telemetry layer: every
// counter, histogram and gate-state tally, summed over thread slots (and
// across components, for Gather). It marshals directly to the
// JSON encoding the /debug/vars endpoint serves.
type Snapshot struct {
	Label   string    `json:"label"`
	TakenAt time.Time `json:"taken_at"`

	Starts              uint64 `json:"tx_starts"`
	Commits             uint64 `json:"tx_commits"`
	Aborts              uint64 `json:"tx_aborts"`
	RetryBudgetExceeded uint64 `json:"tx_retry_budget_exceeded"`
	ContextCanceled     uint64 `json:"tx_context_canceled"`
	WALUnavailable      uint64 `json:"wal_unavailable"`
	Parked              uint64 `json:"tx_parked"`

	// XShardCommits/XShardAborts count cross-shard commit-protocol
	// outcomes per participant shard (a k-shard transaction counts k).
	XShardCommits uint64 `json:"xshard_commits"`
	XShardAborts  uint64 `json:"xshard_aborts"`

	// AbortsByCause indexes by obs.Cause (length obs.NumCauses when set);
	// obs.CauseName maps indexes to labels.
	AbortsByCause []uint64 `json:"tx_aborts_by_cause,omitempty"`

	ClockCASFallbacks    uint64 `json:"clock_cas_fallbacks"`
	WriteSetSpills       uint64 `json:"write_set_spills"`
	FilterFalsePositives uint64 `json:"write_filter_false_positives"`

	GatePassed  uint64 `json:"gate_passed"`
	GateHeld    uint64 `json:"gate_held"`
	GateEscaped uint64 `json:"gate_escaped"`

	WatchdogTrips uint64 `json:"watchdog_trips"`

	WALAppends       uint64 `json:"wal_appends"`
	WALFsyncs        uint64 `json:"wal_fsyncs"`
	WALBytes         uint64 `json:"wal_bytes"`
	WALSnapshots     uint64 `json:"wal_snapshots"`
	RecoveryReplayed uint64 `json:"recovery_replayed_records"`
	RecoveryNanos    uint64 `json:"recovery_duration_ns"`

	// WALQueueDepth is the log's unflushed backlog at snapshot time; nil
	// when no component of the snapshot has a log.
	WALQueueDepth *uint64 `json:"wal_queue_depth,omitempty"`

	// Latency histograms as raw bucket counts on obs's layout; quantiles
	// come from HistCounts.Quantile.
	CommitLatency     obs.HistCounts `json:"commit_latency"`
	ValidationLatency obs.HistCounts `json:"validation_latency"`
	GateHoldTime      obs.HistCounts `json:"gate_hold"`

	GateStates []GateStateSnapshot `json:"gate_states,omitempty"`

	// Components holds the per-label breakdown when this snapshot is a
	// Gather aggregate: one merged snapshot per distinct registration
	// label ("shard0", "shard1", …), sorted by label.
	Components []Snapshot `json:"components,omitempty"`
}

// AbortRatio returns aborts per commit.
func (s Snapshot) AbortRatio() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Commits)
}

// Merge folds o into s: counters and queue depths add, histograms add
// bucket-wise, and gate-state tallies combine by state key.
func (s *Snapshot) Merge(o Snapshot) {
	s.Starts += o.Starts
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.RetryBudgetExceeded += o.RetryBudgetExceeded
	s.ContextCanceled += o.ContextCanceled
	s.WALUnavailable += o.WALUnavailable
	s.Parked += o.Parked
	s.XShardCommits += o.XShardCommits
	s.XShardAborts += o.XShardAborts
	if len(o.AbortsByCause) > 0 {
		if len(s.AbortsByCause) < len(o.AbortsByCause) {
			grown := make([]uint64, len(o.AbortsByCause))
			copy(grown, s.AbortsByCause)
			s.AbortsByCause = grown
		}
		for i, n := range o.AbortsByCause {
			s.AbortsByCause[i] += n
		}
	}
	s.ClockCASFallbacks += o.ClockCASFallbacks
	s.WriteSetSpills += o.WriteSetSpills
	s.FilterFalsePositives += o.FilterFalsePositives
	s.GatePassed += o.GatePassed
	s.GateHeld += o.GateHeld
	s.GateEscaped += o.GateEscaped
	s.WatchdogTrips += o.WatchdogTrips
	s.WALAppends += o.WALAppends
	s.WALFsyncs += o.WALFsyncs
	s.WALBytes += o.WALBytes
	s.WALSnapshots += o.WALSnapshots
	s.RecoveryReplayed += o.RecoveryReplayed
	s.RecoveryNanos += o.RecoveryNanos
	if o.WALQueueDepth != nil {
		d := *o.WALQueueDepth
		if s.WALQueueDepth != nil {
			d += *s.WALQueueDepth
		}
		s.WALQueueDepth = &d
	}
	s.CommitLatency = s.CommitLatency.Add(o.CommitLatency)
	s.ValidationLatency = s.ValidationLatency.Add(o.ValidationLatency)
	s.GateHoldTime = s.GateHoldTime.Add(o.GateHoldTime)

	if len(o.GateStates) > 0 {
		byState := make(map[string]GateStateSnapshot, len(s.GateStates)+len(o.GateStates))
		for _, g := range s.GateStates {
			byState[g.State] = g
		}
		for _, g := range o.GateStates {
			cur := byState[g.State]
			cur.State = g.State
			cur.Visits += g.Visits
			cur.Holds += g.Holds
			cur.Escapes += g.Escapes
			byState[g.State] = cur
		}
		s.GateStates = s.GateStates[:0]
		for _, g := range byState {
			s.GateStates = append(s.GateStates, g)
		}
		sortGateStates(s.GateStates)
	}
}

// sortGateStates orders gate-state rows by visits, most first, then by
// label, the order the exporters cut the hottest states from.
func sortGateStates(gs []GateStateSnapshot) {
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Visits != gs[j].Visits {
			return gs[i].Visits > gs[j].Visits
		}
		return gs[i].State < gs[j].State
	})
}
