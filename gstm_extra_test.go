package gstm_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"gstm"
	"gstm/internal/cm"
)

type spyScheduler struct {
	arrivals atomic.Int64
	commits  atomic.Int64
}

func (s *spyScheduler) Arrive(p gstm.Pair) gstm.GateOutcome { s.arrivals.Add(1); return gstm.GatePass }
func (s *spyScheduler) TxCommit(p gstm.Pair, wv uint64, aborts int) {
	s.commits.Add(1)
}
func (s *spyScheduler) TxAbort(p gstm.Pair, byWV uint64, known bool) {}

func TestSetSchedulerReceivesEventsAndComposesWithProfiling(t *testing.T) {
	sys := gstm.NewSystem(gstm.Config{Threads: 2, Interleave: 4})
	spy := &spyScheduler{}
	sys.SetScheduler(spy, spy)
	if sys.Guided() {
		t.Fatal("custom scheduler must not report as guidance")
	}

	v := gstm.NewVar(0)
	sys.StartProfiling()
	runCounterWorkload(sys, 2, 50, v)
	tr := sys.StopProfiling()

	if spy.arrivals.Load() < 100 {
		t.Fatalf("scheduler arrivals = %d, want >= 100", spy.arrivals.Load())
	}
	if spy.commits.Load() != 100 {
		t.Fatalf("scheduler commits = %d, want 100", spy.commits.Load())
	}
	if tr == nil || tr.Commits != 100 {
		t.Fatalf("profiling alongside scheduler lost events: %+v", tr)
	}

	// Removal stops consultations.
	sys.SetScheduler(nil, nil)
	before := spy.arrivals.Load()
	_ = sys.Run(nil, 0, 0, func(tx *gstm.Tx) error { return nil })
	if spy.arrivals.Load() != before {
		t.Fatal("scheduler consulted after removal")
	}
}

func TestContentionManagerThroughPublicAPI(t *testing.T) {
	sys := gstm.NewSystem(gstm.Config{Threads: 4, Interleave: 4})
	p := cm.NewPolite(0)
	sys.SetScheduler(p, p)
	v := gstm.NewVar(0)
	runCounterWorkload(sys, 4, 100, v)
	if got := v.Peek(); got != 400 {
		t.Fatalf("counter under Polite = %d, want 400", got)
	}
}

func TestForceGuidanceReplacesScheduler(t *testing.T) {
	const threads = 2
	sys := gstm.NewSystem(gstm.Config{Threads: threads, Interleave: 4})
	spy := &spyScheduler{}
	sys.SetScheduler(spy, spy)

	v := gstm.NewVar(0)
	sys.StartProfiling()
	runCounterWorkload(sys, threads, 50, v)
	m := gstm.BuildModel(threads, []*gstm.Trace{sys.StopProfiling()})

	sys.ForceGuidance(m)
	if !sys.Guided() {
		t.Fatal("guidance not installed")
	}
	before := spy.arrivals.Load()
	v2 := gstm.NewVar(0)
	runCounterWorkload(sys, threads, 20, v2)
	if spy.arrivals.Load() != before {
		t.Fatal("old scheduler still consulted after ForceGuidance")
	}
	if v2.Peek() != 40 {
		t.Fatalf("guided counter = %d", v2.Peek())
	}
}

func TestConcurrentProfilingTogglesSafe(t *testing.T) {
	sys := gstm.NewSystem(gstm.Config{Threads: 2, Interleave: 4})
	v := gstm.NewVar(0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = sys.Run(nil, 0, 0, func(tx *gstm.Tx) error {
				gstm.Write(tx, v, gstm.Read(tx, v)+1)
				return nil
			})
		}
	}()
	for i := 0; i < 30; i++ {
		sys.StartProfiling()
		_ = sys.StopProfiling()
	}
	close(stop)
	wg.Wait()
}

func TestAnalyzeMatchesEnableDecision(t *testing.T) {
	const threads = 4
	sys := gstm.NewSystem(gstm.Config{Threads: threads, Interleave: 4})
	var traces []*gstm.Trace
	for i := 0; i < 4; i++ {
		v := gstm.NewVar(0)
		sys.StartProfiling()
		runCounterWorkload(sys, threads, 100, v)
		traces = append(traces, sys.StopProfiling())
	}
	m := gstm.BuildModel(threads, traces)
	rep := gstm.Analyze(m)
	err := sys.EnableGuidance(m)
	if rep.Guidable && err != nil {
		t.Fatalf("analyzer accepts but EnableGuidance fails: %v", err)
	}
	if !rep.Guidable && err == nil {
		t.Fatal("analyzer rejects but EnableGuidance succeeded")
	}
}
