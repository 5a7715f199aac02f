package server

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"gstm"
)

// ServingMode is the lifecycle's externally visible state, reported by
// OpInfo(InfoMode). It is the package-level gstm.Mode: the server overlays
// the two transitional states only a lifecycle driver can know
// (ModeTraining, ModeRejected) on top of the states gstm.System.Mode
// derives itself.
type ServingMode = gstm.Mode

const (
	// ModeUnguided: plain TL2, no profiling (forced via CtlModeUnguided,
	// or configured at start).
	ModeUnguided = gstm.ModeUnguided
	// ModeProfiling: serving unguided while the collector captures the
	// transaction sequence of live traffic.
	ModeProfiling = gstm.ModeProfiling
	// ModeTraining: profiling finished; the model is being built and
	// analyzed in the background while serving continues unguided.
	ModeTraining = gstm.ModeTraining
	// ModeGuided: a model passed (or was forced) and guidance is installed
	// behind the workers' dequeue check — the hot-swap happened under load.
	ModeGuided = gstm.ModeGuided
	// ModeRejected: the analyzer rejected the trained model
	// (gstm.ErrGuidanceRejected); serving stays unguided. The reason is
	// kept for RejectReason.
	ModeRejected = gstm.ModeRejected
	// ModeDegraded: guided, but the watchdog has tripped guidance into
	// pass-through. Derived in Server.Mode, never stored.
	ModeDegraded = gstm.ModeDegraded
)

// lifecycle drives the paper's profile → model → analyze → guided flow
// over live traffic for ONE shard's System. Workers call noteOps on every
// committed batch; the worker that crosses a slice boundary finalizes the
// trace, and the one that completes the last slice kicks off background
// training. Control commands can reset the machine at any time; a
// generation counter makes stale background training results no-ops. Each
// shard owns an independent lifecycle, so one shard's rejected model never
// holds back a neighbor's hot-swap.
type lifecycle struct {
	sys *gstm.System
	cfg *Config

	mode    atomic.Uint32
	counted atomic.Int64 // committed ops in the current profiling slice
	target  atomic.Int64 // ops per slice for the current auto cycle

	mu        sync.Mutex
	gen       uint64 // bumped on every reconfiguration
	traces    []*gstm.Trace
	reason    string
	lastModel *gstm.Model // most recently trained model, for CtlModeGuided
}

func (lc *lifecycle) init(sys *gstm.System, cfg *Config) {
	lc.sys = sys
	lc.cfg = cfg
}

func (lc *lifecycle) currentMode() ServingMode { return ServingMode(lc.mode.Load()) }

func (lc *lifecycle) rejectReason() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.reason
}

// forceUnguided parks the lifecycle: guidance uninstalled, profiling off.
func (lc *lifecycle) forceUnguided() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.gen++
	lc.sys.StopProfiling() // discard a partial trace, if any
	lc.sys.DisableGuidance()
	lc.traces = nil
	lc.reason = ""
	lc.mode.Store(uint32(ModeUnguided))
}

// startAuto (re)starts the profile→guide cycle with the given slice size.
func (lc *lifecycle) startAuto(profileOps int) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.gen++
	lc.sys.StopProfiling()
	lc.sys.DisableGuidance()
	lc.traces = nil
	lc.reason = ""
	lc.target.Store(int64(profileOps))
	lc.counted.Store(0)
	lc.sys.StartProfiling()
	lc.mode.Store(uint32(ModeProfiling))
}

// forceReject parks the shard in ModeRejected with the given reason:
// guidance uninstalled, profiling off, serving continues unguided. Used by
// the CtlShardReject control command (and tests) to exercise the
// one-shard-rejected-neighbors-guided topology on demand.
func (lc *lifecycle) forceReject(reason string) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.gen++
	lc.sys.StopProfiling()
	lc.sys.DisableGuidance()
	lc.traces = nil
	lc.reason = reason
	lc.mode.Store(uint32(ModeRejected))
}

// noteOps credits n committed operations to the current profiling slice.
// Cheap when not profiling: one atomic load.
func (lc *lifecycle) noteOps(n int) {
	if lc.currentMode() != ModeProfiling {
		return
	}
	if lc.counted.Add(int64(n)) < lc.target.Load() {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	// Re-check under the lock: another worker may have closed the slice,
	// or a control command reconfigured everything.
	if lc.currentMode() != ModeProfiling || lc.counted.Load() < lc.target.Load() {
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
	gen := lc.gen
	go pprof.Do(context.Background(), pprof.Labels("gstm", "lifecycle-train"),
		func(context.Context) { lc.train(gen, traces) })
}

// train builds and analyzes the model off the serving path, then — if it
// passes (or ForceGuidance) and no reconfiguration intervened — hot-swaps
// guidance in under load.
func (lc *lifecycle) train(gen uint64, traces []*gstm.Trace) {
	m := gstm.BuildModel(lc.cfg.Workers, traces)

	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.gen != gen {
		return // a control command reconfigured the server mid-training
	}
	if lc.install(m) != nil {
		lc.mode.Store(uint32(ModeRejected))
	}
}

// install puts m in as the shard's guidance — forced under
// Config.ForceGuidance, otherwise only if the analyzer passes it — and
// records it for CtlModeGuided. A rejection leaves guidance off, keeps the
// reason for RejectReason and returns the error. Called with mu held.
func (lc *lifecycle) install(m *gstm.Model) error {
	opts := lc.guidanceOptions()
	if lc.cfg.ForceGuidance {
		lc.sys.ForceGuidance(m, opts...)
	} else if err := lc.sys.EnableGuidance(m, opts...); err != nil {
		lc.reason = err.Error()
		return err
	}
	lc.lastModel = m
	lc.mode.Store(uint32(ModeGuided))
	return nil
}

// guidanceOptions installs every model behind the workers' dequeue check:
// the controller (or its watchdog) observes the shard's events, and no
// transaction is held at the gate (DESIGN.md "Dispatch").
func (lc *lifecycle) guidanceOptions() []gstm.GuidanceOption {
	opts := []gstm.GuidanceOption{
		gstm.WithTfactor(lc.cfg.Tfactor),
		gstm.WithDequeueCheck(),
	}
	if lc.cfg.Watchdog {
		opts = append(opts, gstm.WithWatchdog())
	}
	return opts
}

// warmStart installs a model reconstructed from the shard's recovered
// write-ahead log before serving begins (guided warmup): the same
// install path as train, minus the profiling that produced the traces.
// Reports false when the analyzer rejects the model (and ForceGuidance is
// off) — the caller falls back to the normal cold start.
func (lc *lifecycle) warmStart(m *gstm.Model) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.gen++
	return lc.install(m) == nil
}

// reinstallGuided force-installs the most recently trained model without
// re-profiling. Reports false when no model has been trained yet.
func (lc *lifecycle) reinstallGuided() bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.lastModel == nil {
		return false
	}
	lc.gen++
	lc.sys.StopProfiling()
	lc.sys.ForceGuidance(lc.lastModel, lc.guidanceOptions()...)
	lc.mode.Store(uint32(ModeGuided))
	return true
}
