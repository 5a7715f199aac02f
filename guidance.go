package gstm

// GuidanceOption configures one guidance installation (EnableGuidance or
// ForceGuidance) through With* constructors, like Run's TxOption. Installs
// are rare, so unlike TxOption it is a function; a []GuidanceOption built
// once may be reused across installs.
type GuidanceOption func(*guidanceSettings)

type guidanceSettings struct {
	tfactor     float64
	gateRetries int
	watchdog    bool
	dequeue     bool
}

func applyGuidanceOptions(opts []GuidanceOption) guidanceSettings {
	var set guidanceSettings
	for _, o := range opts {
		o(&set)
	}
	return set
}

// WithTfactor sets the paper's Tfactor: the highest outbound probability is
// divided by it to obtain the destination-set threshold. Zero (the default)
// selects the paper's value of 4.
func WithTfactor(t float64) GuidanceOption {
	return func(s *guidanceSettings) { s.tfactor = t }
}

// WithGateRetries sets the paper's k: how many times a held-back thread is
// re-checked before being forced through. Zero (the default) selects the
// engine default.
func WithGateRetries(k int) GuidanceOption {
	return func(s *guidanceSettings) { s.gateRetries = k }
}

// WithWatchdog arms the guidance watchdog: a circuit breaker that samples
// gate escape/hold rates and the abort rate over windows of 512 events and
// trips guidance into pass-through mode for good when more than a quarter
// of a window's gate decisions (at least 32) escaped — the runtime analogue
// of the analyzer's offline rejection. System.Health reports the breaker
// state and System.Mode refines ModeGuided to ModeDegraded once it has
// tripped.
func WithWatchdog() GuidanceOption {
	return func(s *guidanceSettings) { s.watchdog = true }
}

// WithDequeueCheck installs guidance without the transaction-start gate:
// the controller still tracks the automaton's state from the event stream,
// and the caller asks System.CheckDequeue about each piece of work as it
// takes it up, so no transaction ever waits at TM_BEGIN. It
// suits callers that own a queue — the server's workers — not threads with
// nothing else to run.
func WithDequeueCheck() GuidanceOption {
	return func(s *guidanceSettings) { s.dequeue = true }
}
