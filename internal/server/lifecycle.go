package server

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"gstm"
)

// ServingMode is the lifecycle's externally visible state (Server.Mode,
// Server.ShardMode). It is the package-level gstm.Mode: the server overlays
// the two transitional states only a lifecycle driver can know
// (ModeTraining, ModeRejected) on top of the states gstm.System.Mode
// derives itself.
type ServingMode = gstm.Mode

const (
	// ModeUnguided: plain TL2, no profiling (Config.Unguided).
	ModeUnguided = gstm.ModeUnguided
	// ModeProfiling: serving unguided while the collector captures the
	// transaction sequence of live traffic.
	ModeProfiling = gstm.ModeProfiling
	// ModeTraining: profiling finished; the model is being built and
	// analyzed in the background while serving continues unguided.
	ModeTraining = gstm.ModeTraining
	// ModeGuided: a model passed (or was forced) and guidance is installed
	// behind the readers' per-batch check — the hot-swap happened under load.
	ModeGuided = gstm.ModeGuided
	// ModeRejected: the analyzer rejected the trained model
	// (gstm.ErrGuidanceRejected); serving stays unguided.
	ModeRejected = gstm.ModeRejected
	// ModeDegraded: guided, but the watchdog has tripped guidance into
	// pass-through. Derived in Server.Mode, never stored.
	ModeDegraded = gstm.ModeDegraded
)

// lifecycle drives the paper's profile → model → analyze → guided flow
// over live traffic for ONE shard's System, once. Readers call noteOps on
// every committed batch; the reader that crosses a slice boundary
// finalizes the trace, and the one that completes the last slice kicks off
// background training, which installs or rejects the model. Each shard
// owns an independent lifecycle, so one shard's rejected model never holds
// back a neighbor's hot-swap.
type lifecycle struct {
	sys *gstm.System
	cfg *Config

	mode    atomic.Uint32
	counted atomic.Int64 // committed ops in the current profiling slice

	mu     sync.Mutex // closes one slice at a time
	traces []*gstm.Trace
}

func (lc *lifecycle) currentMode() ServingMode { return ServingMode(lc.mode.Load()) }

// start begins the first profiling slice. Called once, before any
// connection is served.
func (lc *lifecycle) start() {
	lc.sys.StartProfiling()
	lc.mode.Store(uint32(ModeProfiling))
}

// noteOps credits n committed operations to the current profiling slice.
// Cheap when not profiling: one atomic load.
func (lc *lifecycle) noteOps(n int) {
	if lc.currentMode() != ModeProfiling {
		return
	}
	slice := int64(lc.cfg.ProfileOps)
	if lc.counted.Add(int64(n)) < slice {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	// Re-check under the lock: another reader may have closed the slice.
	if lc.currentMode() != ModeProfiling || lc.counted.Load() < slice {
		return
	}
	tr := lc.sys.StopProfiling()
	lc.counted.Store(0)
	if tr != nil {
		lc.traces = append(lc.traces, tr)
	}
	if len(lc.traces) < lc.cfg.ProfileSlices {
		lc.sys.StartProfiling()
		return
	}
	traces := lc.traces
	lc.traces = nil
	lc.mode.Store(uint32(ModeTraining))
	go pprof.Do(context.Background(), pprof.Labels("gstm", "lifecycle-train"),
		func(context.Context) { lc.train(traces) })
}

// train builds and analyzes the model off the serving path, then
// hot-swaps guidance in under load — or latches ModeRejected.
func (lc *lifecycle) train(traces []*gstm.Trace) {
	if !lc.install(gstm.BuildModel(lc.cfg.Workers, traces)) {
		lc.mode.Store(uint32(ModeRejected))
	}
}

// install puts m in as the shard's guidance — forced under
// Config.ForceGuidance, otherwise only if the analyzer passes it — behind
// the readers' per-batch check: the controller (or its watchdog) observes
// the shard's events, and no transaction is held at the gate (DESIGN.md
// "Dispatch"). It is the one install, for a trained model (train) and for
// one recovered from the write-ahead log (guided warmup). Reports false,
// leaving guidance off, when the analyzer rejects m.
func (lc *lifecycle) install(m *gstm.Model) bool {
	opts := []gstm.GuidanceOption{
		gstm.WithTfactor(lc.cfg.Tfactor),
		gstm.WithDequeueCheck(),
	}
	if lc.cfg.Watchdog {
		opts = append(opts, gstm.WithWatchdog())
	}
	if lc.cfg.ForceGuidance {
		lc.sys.ForceGuidance(m, opts...)
	} else if lc.sys.EnableGuidance(m, opts...) != nil {
		return false
	}
	lc.mode.Store(uint32(ModeGuided))
	return true
}
