// Package gstm is a Go reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (Mururu,
// Gavrilovska, Pande — PPoPP 2018).
//
// It provides a TL2 software transactional memory whose commit order can be
// steered by a profile-derived probabilistic automaton (the Thread State
// Automaton, TSA) so that repeated runs follow common execution paths,
// cutting the run-to-run variance that speculation otherwise causes.
//
// The workflow mirrors the paper's four phases:
//
//	sys := gstm.NewSystem(gstm.Config{Threads: 8})
//
//	// 1. Profile: run the workload several times under instrumentation.
//	var traces []*gstm.Trace
//	for run := 0; run < 20; run++ {
//		sys.StartProfiling()
//		runWorkload(sys) // calls sys.Run(ctx, thread, txnSite, fn)
//		traces = append(traces, sys.StopProfiling())
//	}
//
//	// 2. Generate the Thread State Automaton.
//	m := gstm.BuildModel(8, traces)
//
//	// 3. Analyze: is there enough bias to guide?
//	report := gstm.Analyze(m)
//	if !report.Guidable {
//		// fall back to unguided execution (the paper's ssca2 case)
//	}
//
//	// 4. Guided execution.
//	sys.EnableGuidance(m, gstm.WithTfactor(4))
//	runWorkload(sys)
//
// Shared state lives in Var[T] and Array[T] cells accessed with Read and
// Write inside a Run block. Each Run call names its worker thread and its
// static transaction site — the paper's TM_BEGIN(ID) — and takes options
// (WithReadOnly, WithMaxAttempts, WithBlocking) plus an optional context
// for cancellation.
//
// Blocking transactions compose in the classic STM style: a body that
// finds the state unusable calls tx.Retry(), Select races alternatives,
// Compose chains them, and WithBlocking parks the goroutine until a commit
// changes something the attempt read (see README "Blocking transactions").
package gstm

import (
	"gstm/internal/model"
	"gstm/internal/obs"
	"gstm/internal/telemetry"
	"gstm/internal/tl2"
	"gstm/internal/trace"
	"gstm/internal/txid"
)

// ThreadID identifies a worker thread (goroutine) of the application.
type ThreadID = txid.ThreadID

// TxnID identifies a static transaction site, the paper's TM_BEGIN(ID).
type TxnID = txid.TxnID

// Pair is a (transaction site, thread) pair, the unit of the paper's
// thread transactional states.
type Pair = txid.Pair

// Tx is a transaction attempt passed to the function given to
// System.Run.
type Tx = tl2.Tx

// Var is a transactional memory cell of type T.
type Var[T any] = tl2.Var[T]

// Array is a fixed-length sequence of transactional cells with
// per-element conflict detection.
type Array[T any] = tl2.Array[T]

// Trace is the finalized observation of one profiled run: the transaction
// sequence and per-thread abort histograms.
type Trace = trace.Trace

// State is a thread transactional state (a commit plus the aborts it
// caused).
type State = trace.State

// Model is the Thread State Automaton built from profiled traces.
type Model = model.TSA

// Report is the model analyzer's verdict, including the guidance metric.
type Report = model.Report

// NewVar returns a transactional cell initialized to val.
func NewVar[T any](val T) *Var[T] { return tl2.NewVar(val) }

// NewArray returns an Array of n zero-valued cells.
func NewArray[T any](n int) *Array[T] { return tl2.NewArray[T](n) }

// Read returns v's value inside the transaction, observing the
// transaction's own buffered writes first.
func Read[T any](tx *Tx, v *Var[T]) T { return tl2.Read(tx, v) }

// Write buffers val as tx's pending write to v; it becomes visible to
// other transactions only if tx commits.
func Write[T any](tx *Tx, v *Var[T], val T) { tl2.Write(tx, v, val) }

// ReadAt is Read on an Array element.
func ReadAt[T any](tx *Tx, a *Array[T], i int) T { return tl2.ReadAt(tx, a, i) }

// WriteAt is Write on an Array element.
func WriteAt[T any](tx *Tx, a *Array[T], i int, val T) { tl2.WriteAt(tx, a, i, val) }

// Select returns a transaction function that races alternatives: each fn
// is tried in order and the first that does not call tx.Retry decides the
// transaction (its error included). When every alternative retries, the
// combined function retries — under WithBlocking the transaction then
// parks on the union of everything the alternatives read, so a commit
// enabling any one of them wakes it; without blocking Run returns
// ErrWouldBlock.
//
// Matching the classic orElse semantics (and the anacrolix/stm surface
// this mirrors), a retrying alternative's buffered writes are not rolled
// back: alternatives should check their guard and Retry before writing.
func Select(fns ...func(*Tx) error) func(*Tx) error { return tl2.Select(fns...) }

// Compose returns a transaction function chaining fns into one atomic
// unit: each runs in order, a non-nil error stops the chain, and a
// tx.Retry in any of them blocks (or ErrWouldBlock's) the whole
// composition.
func Compose(fns ...func(*Tx) error) func(*Tx) error { return tl2.Compose(fns...) }

// BuildModel runs the paper's Algorithm 1 over profiled traces, producing
// the Thread State Automaton for a workload trained at the given thread
// count.
func BuildModel(threads int, traces []*Trace) *Model {
	return model.BuildFromTraces(threads, traces)
}

// Analyze validates a model with the paper's default analyzer parameters
// (Tfactor 4, 50% guidance-metric threshold).
func Analyze(m *Model) Report { return model.DefaultAnalyzer().Analyze(m) }

// SaveModel writes m to path in the binary state_data format.
func SaveModel(m *Model, path string) error { return m.Save(path) }

// LoadModel reads a model written by SaveModel (or by `gstm model -o`), so
// a model trained once can guide later runs: the pair is the library side
// of the artifact's state_data files.
func LoadModel(path string) (*Model, error) { return model.Load(path) }

// TelemetrySnapshot is a point-in-time view of the runtime telemetry layer:
// transaction lifecycle counters, sampled commit/validation latency and
// gate hold histograms as raw bucket counts (TelemetryHist.Quantile gives
// p50/p95/p99), and per-automaton-state gate telemetry. A guided System's
// watchdog trip reason is Health().Watchdog.LastTrip. See
// System.TelemetrySnapshot.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryHist is one latency histogram inside a TelemetrySnapshot.
type TelemetryHist = obs.HistCounts

// Span is a per-request variance-observatory timeline (see internal/obs):
// attach one to a Run call with WithSpan to record gate waits, aborted
// attempts with their causes, and the commit protocol's phases.
type Span = obs.Span

// GatherTelemetry merges the telemetry of every live runtime in the process
// into one snapshot — the view the -metrics-addr HTTP endpoint serves.
func GatherTelemetry() TelemetrySnapshot { return telemetry.Gather() }

// ServeTelemetry starts the observability HTTP endpoint on addr (":0" picks
// a free port), serving /metrics (Prometheus text format), /debug/vars
// (JSON) and /debug/pprof for the whole process. It returns the bound
// address; shut the server down with its Close or Shutdown method.
func ServeTelemetry(addr string) (*telemetry.Server, error) {
	return telemetry.ServeAddr(addr)
}
