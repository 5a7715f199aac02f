package gstm_test

import (
	"testing"

	"gstm"
)

// gateViews reads the gate decisions three ways: GateStats, Health and the
// telemetry snapshot, whose per-state rows it also sums.
type gateViews struct {
	stats, health, snap, rows [3]uint64 // passed, held, escaped
	attempts                  uint64    // Health's commits + aborts
	holdSamples               uint64
	states                    int
}

func readGateViews(sys *gstm.System) gateViews {
	var v gateViews
	p, h, e := sys.GateStats()
	v.stats = [3]uint64{p, h, e}
	hl := sys.Health()
	v.health = [3]uint64{hl.GatePassed, hl.GateHeld, hl.GateEscaped}
	v.attempts = hl.Commits + hl.Aborts
	s := sys.TelemetrySnapshot()
	v.snap = [3]uint64{s.GatePassed, s.GateHeld, s.GateEscaped}
	for _, g := range s.GateStates {
		v.rows[0] += g.Visits - g.Holds - g.Escapes
		v.rows[1] += g.Holds
		v.rows[2] += g.Escapes
	}
	v.holdSamples = s.GateHoldTime.Count
	v.states = len(s.GateStates)
	return v
}

// TestGateTallyOneRecord: the gate's decisions have one record, so
// GateStats, Health and the telemetry snapshot read the same counts, one
// per transaction attempt, the per-state rows sum to them, and ResetStats
// zeroes all of them at once.
func TestGateTallyOneRecord(t *testing.T) {
	const threads, per = 4, 200
	sys := gstm.NewSystem(gstm.Config{Threads: threads, Interleave: 4})
	defer sys.Close()
	var traces []*gstm.Trace
	for run := 0; run < 3; run++ {
		sys.StartProfiling()
		runCounterWorkload(sys, threads, per, gstm.NewVar(0))
		traces = append(traces, sys.StopProfiling())
	}
	sys.ForceGuidance(gstm.BuildModel(threads, traces), gstm.WithGateRetries(2))

	runCounterWorkload(sys, threads, per, gstm.NewVar(0))
	if v := readGateViews(sys); v.stats[0]+v.stats[1]+v.stats[2] == 0 {
		t.Fatal("gate made no decisions during the guided run")
	}
	sys.ResetStats()
	if v := readGateViews(sys); v != (gateViews{}) {
		t.Fatalf("after ResetStats the gate reads %+v, want zero everywhere", v)
	}

	runCounterWorkload(sys, threads, per, gstm.NewVar(0))
	v := readGateViews(sys)
	if total := v.stats[0] + v.stats[1] + v.stats[2]; total != v.attempts || v.attempts < threads*per {
		t.Fatalf("GateStats sums to %d decisions, want one per attempt (%d)", total, v.attempts)
	}
	if v.health != v.stats || v.snap != v.stats || v.rows != v.stats {
		t.Fatalf("gate views disagree: GateStats %v, Health %v, snapshot %v, per-state rows %v",
			v.stats, v.health, v.snap, v.rows)
	}
	t.Logf("after reset: passed/held/escaped %v over %d states, %d hold samples", v.stats, v.states, v.holdSamples)
}
