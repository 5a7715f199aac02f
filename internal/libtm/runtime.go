package libtm

import (
	"sync"
	"sync/atomic"

	"gstm/internal/obs"
	"gstm/internal/telemetry"
	"gstm/internal/txid"
	"gstm/internal/yield"
)

// Runtime is a LibTM STM instance.
type Runtime struct {
	cfg   Config
	sink  atomic.Pointer[sinkBox]
	gate  atomic.Pointer[gateBox]
	fault atomic.Pointer[faultBox]
	pool  sync.Pool

	// tel holds all runtime counters (one block per thread slot) and
	// latency histograms, registered in the process-wide telemetry registry.
	tel *telemetry.Metrics
}

type sinkBox struct{ s EventSink }
type gateBox struct{ g Gate }
type faultBox struct{ f FaultInjector }

// New returns a Runtime with cfg.
func New(cfg Config) *Runtime {
	rt := &Runtime{cfg: cfg, tel: telemetry.New("libtm")}
	rt.pool.New = func() any { return &Tx{} }
	return rt
}

// Telemetry returns this runtime's metrics: sharded lifecycle counters
// and sampled latency histograms.
func (rt *Runtime) Telemetry() *telemetry.Metrics { return rt.tel }

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// SetSink installs (or removes, with nil) the instrumentation sink.
func (rt *Runtime) SetSink(s EventSink) {
	if s == nil {
		rt.sink.Store(nil)
		return
	}
	rt.sink.Store(&sinkBox{s: s})
}

// SetGate installs (or removes, with nil) the transaction-start gate.
func (rt *Runtime) SetGate(g Gate) {
	if g == nil {
		rt.gate.Store(nil)
		return
	}
	rt.gate.Store(&gateBox{g: g})
}

// SetFaultInjector installs (or removes, with nil) the chaos-testing fault
// injector (see tl2.FaultInjector; the interface is structurally shared).
func (rt *Runtime) SetFaultInjector(f FaultInjector) {
	if f == nil {
		rt.fault.Store(nil)
		return
	}
	rt.fault.Store(&faultBox{f: f})
}

// injector returns the installed fault injector, or nil.
func (rt *Runtime) injector() FaultInjector {
	if fb := rt.fault.Load(); fb != nil {
		return fb.f
	}
	return nil
}

// Stats returns cumulative committed transactions and aborted attempts.
func (rt *Runtime) Stats() (commits, aborts uint64) {
	return rt.tel.Load(telemetry.Commits), rt.tel.Load(telemetry.Aborts)
}

// ResetStats zeroes the cumulative telemetry — counters and latency
// histograms.
func (rt *Runtime) ResetStats() {
	rt.tel.Reset()
}

// Atomic executes fn transactionally as transaction site txn on worker
// thread, retrying on conflicts. A non-nil error from fn aborts the attempt
// and is returned without retry. Atomic must not be nested.
func (rt *Runtime) Atomic(thread txid.ThreadID, txn txid.TxnID, fn func(*Tx) error) error {
	self := txid.Pair{Txn: txn, Thread: thread}
	tx := rt.pool.Get().(*Tx)
	defer func() {
		if r := recover(); r != nil {
			// A panic escaped the user's transaction body: release write
			// locks and reader registrations, scrub the write set, pool a
			// clean Tx, and let the panic continue.
			tx.cleanup()
			tx.scrub()
			rt.pool.Put(tx)
			panic(r)
		}
		rt.pool.Put(tx)
	}()

	for attempt := 0; ; attempt++ {
		if gb := rt.gate.Load(); gb != nil {
			gb.g.Arrive(self)
		}
		sampled := rt.tel.TxStart(uint64(thread))
		tx.reset(rt, self, attempt)

		err, c := runBody(tx, fn)
		if c != nil {
			tx.cleanup()
			rt.noteAbort(self, c)
			yield.Backoff(attempt)
			continue
		}
		if err != nil {
			tx.cleanup()
			return err
		}
		if fi := rt.injector(); fi != nil && fi.SpuriousAbort(self, attempt) {
			tx.cleanup()
			rt.noteAbort(self, &conflict{cause: obs.CauseSpurious})
			yield.Backoff(attempt)
			continue
		}
		var t0 int64
		if sampled {
			t0 = obs.Now()
		}
		wv, c, ok := tx.commit()
		if !ok {
			tx.cleanup()
			rt.noteAbort(self, c)
			yield.Backoff(attempt)
			continue
		}
		if sampled {
			// LibTM's visible readers validate at access time; there is no
			// commit-time read-set validation phase to time separately.
			rt.tel.ObserveCommit(uint64(obs.Now()-t0), 0, false)
		}
		rt.tel.TxCommit(uint64(thread))
		if sb := rt.sink.Load(); sb != nil {
			sb.s.TxCommit(self, wv, attempt)
		}
		return nil
	}
}

// noteAbort counts and reports an abort. A doom names its commit exactly;
// lock-busy and injected aborts report the most recent commit as a guess.
func (rt *Runtime) noteAbort(self txid.Pair, c *conflict) {
	rt.tel.TxAbort(uint64(self.Thread), c.cause)
	sb := rt.sink.Load()
	if sb == nil {
		return
	}
	if c.byWV != 0 {
		sb.s.TxAbort(self, c.byWV, true)
		return
	}
	sb.s.TxAbort(self, seq.Load(), false)
}

// runBody executes fn, converting a conflict panic into a result and a
// Retry into ErrBlockingUnsupported (ending the call, not the attempt),
// while letting other panics propagate.
func runBody(tx *Tx, fn func(*Tx) error) (err error, c *conflict) {
	defer func() {
		if r := recover(); r != nil {
			if cc, ok := r.(*conflict); ok {
				c = cc
				return
			}
			if _, ok := r.(retrySignal); ok {
				err = ErrBlockingUnsupported
				return
			}
			panic(r)
		}
	}()
	return fn(tx), nil
}
