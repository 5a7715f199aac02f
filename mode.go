package gstm

import "gstm/internal/guide"

// Mode is the execution mode of a System (and, one level up, of each shard
// of a sharded deployment): where it currently sits in the paper's
// profile → train → analyze → guide lifecycle. The System itself only ever
// occupies the states its own methods can establish — ModeUnguided,
// ModeProfiling, ModeGuided and ModeDegraded, derived in System.Mode from
// the installed collector, controller and watchdog. The remaining states
// (ModeTraining, ModeRejected) belong to lifecycle drivers such as
// internal/server, which overlay them while a model is being built in the
// background or after the analyzer rejected one; they reuse this type so
// the whole repo speaks one mode vocabulary.
type Mode uint32

const (
	// ModeUnguided: plain TL2 — no guidance gate, no profiling collector.
	ModeUnguided Mode = 0
	// ModeProfiling: serving unguided while a collector captures the
	// transaction sequence (StartProfiling is active).
	ModeProfiling Mode = 1
	// ModeTraining: profiling finished and a model is being built and
	// analyzed in the background while execution continues unguided. A
	// System never reports this itself; lifecycle drivers overlay it.
	ModeTraining Mode = 2
	// ModeGuided: a guidance controller is installed (EnableGuidance or
	// ForceGuidance).
	ModeGuided Mode = 3
	// ModeRejected: the analyzer rejected the trained model
	// (ErrGuidanceRejected) and execution stays unguided. A System never
	// reports this itself; lifecycle drivers latch it.
	ModeRejected Mode = 4
	// ModeDegraded: guidance is installed but its watchdog has tripped it
	// into pass-through. Always derived, never stored.
	ModeDegraded Mode = 5
)

func (m Mode) String() string {
	switch m {
	case ModeUnguided:
		return "unguided"
	case ModeProfiling:
		return "profiling"
	case ModeTraining:
		return "training"
	case ModeGuided:
		return "guided"
	case ModeRejected:
		return "rejected"
	case ModeDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// Mode derives the System's current execution mode from what is installed:
// guided (refined to degraded while the watchdog holds guidance tripped)
// when a guidance controller is present, profiling when only a collector
// is, unguided otherwise. This is the single source of truth the serving
// lifecycle builds on; see Health for the same value alongside counters.
func (s *System) Mode() Mode {
	s.mu.Lock()
	ctrl, dog, col := s.ctrl, s.dog, s.collector
	s.mu.Unlock()
	switch {
	case ctrl != nil && dog != nil && dog.Snapshot().State == guide.WatchdogTripped:
		return ModeDegraded
	case ctrl != nil:
		return ModeGuided
	case col != nil:
		return ModeProfiling
	default:
		return ModeUnguided
	}
}
