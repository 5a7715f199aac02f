package gstm

import (
	"context"
	"errors"
	"testing"

	"gstm/internal/faultinject"
)

// TestRunReadOnlyOption checks that WithReadOnly selects the write-rejecting
// fast path and that plain reads commit and count.
func TestRunReadOnlyOption(t *testing.T) {
	sys := NewSystem(Config{Threads: 1})
	v := NewVar(41)

	if err := sys.Run(nil, 0, 0, func(tx *Tx) error {
		if got := Read(tx, v); got != 41 {
			t.Errorf("Read = %d, want 41", got)
		}
		return nil
	}, WithReadOnly()); err != nil {
		t.Fatalf("read-only Run: %v", err)
	}

	err := sys.Run(nil, 0, 0, func(tx *Tx) error {
		Write(tx, v, 42)
		return nil
	}, WithReadOnly())
	if err == nil {
		t.Fatal("Write inside WithReadOnly Run succeeded")
	}
	if v.Peek() != 41 {
		t.Fatalf("rejected write was published: %d", v.Peek())
	}
}

// TestRunMaxAttempts turns a permanent spurious-abort schedule into
// ErrRetryBudgetExhausted after exactly n attempts, without any context.
func TestRunMaxAttempts(t *testing.T) {
	sys := NewSystem(Config{Threads: 1})
	sys.rt.SetFaultInjector(faultinject.New(faultinject.Config{Seed: 1, SpuriousAbortProb: 1.01}))
	v := NewVar(0)

	attempts := 0
	err := sys.Run(nil, 0, 0, func(tx *Tx) error {
		attempts++
		Write(tx, v, Read(tx, v)+1)
		return nil
	}, WithMaxAttempts(3))
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
	if attempts != 3 {
		t.Fatalf("body ran %d times, want 3", attempts)
	}
	if v.Peek() != 0 {
		t.Fatalf("budget-exhausted Run published a write: %d", v.Peek())
	}
	h := sys.Health()
	if h.RetryBudgetExceeded != 1 {
		t.Fatalf("Health.RetryBudgetExceeded = %d, want 1", h.RetryBudgetExceeded)
	}
}

// TestRunMaxAttemptsOverridesContextBudget: WithMaxAttempts bounds a call
// that passes a context. The option is the only attempt bound; a context
// carries none.
func TestRunMaxAttemptsOverridesContextBudget(t *testing.T) {
	sys := NewSystem(Config{Threads: 1})
	sys.rt.SetFaultInjector(faultinject.New(faultinject.Config{Seed: 1, SpuriousAbortProb: 1.01}))

	attempts := 0
	err := sys.Run(context.Background(), 0, 0, func(tx *Tx) error {
		attempts++
		return nil
	}, WithMaxAttempts(2))
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
	if attempts != 2 {
		t.Fatalf("body ran %d times, want 2", attempts)
	}
}

// TestRunCanceledSentinel: a pre-canceled context surfaces as an error
// matching both gstm.ErrCanceled and context.Canceled.
func TestRunCanceledSentinel(t *testing.T) {
	sys := NewSystem(Config{Threads: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	ran := false
	err := sys.Run(ctx, 0, 0, func(tx *Tx) error { ran = true; return nil })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, should also match context.Canceled", err)
	}
	if ran {
		t.Fatal("body ran under a pre-canceled context")
	}
}

// TestErrGuidanceRejectedSentinel: EnableGuidance on a hopeless model
// wraps the exported sentinel.
func TestErrGuidanceRejectedSentinel(t *testing.T) {
	sys := NewSystem(Config{Threads: 2})
	m := BuildModel(2, nil) // empty model: nothing to guide with
	err := sys.EnableGuidance(m)
	if !errors.Is(err, ErrGuidanceRejected) {
		t.Fatalf("err = %v, want ErrGuidanceRejected", err)
	}
	if sys.Guided() {
		t.Fatal("rejected model installed guidance anyway")
	}
}

// TestSystemModeLifecycle walks the mode machine through its System-level
// states: unguided → profiling → guided → unguided, with Health agreeing
// at every step.
func TestSystemModeLifecycle(t *testing.T) {
	sys := NewSystem(Config{Threads: 2})
	if got := sys.Mode(); got != ModeUnguided {
		t.Fatalf("fresh system mode = %v, want unguided", got)
	}
	sys.StartProfiling()
	if got := sys.Mode(); got != ModeProfiling {
		t.Fatalf("mode while profiling = %v, want profiling", got)
	}
	v := NewVar(0)
	for i := 0; i < 64; i++ {
		if err := sys.Run(nil, ThreadID(i%2), 0, func(tx *Tx) error {
			Write(tx, v, Read(tx, v)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	tr := sys.StopProfiling()
	if got := sys.Mode(); got != ModeUnguided {
		t.Fatalf("mode after StopProfiling = %v, want unguided", got)
	}
	sys.ForceGuidance(BuildModel(2, []*Trace{tr}), WithTfactor(2))
	if got := sys.Mode(); got != ModeGuided {
		t.Fatalf("mode after ForceGuidance = %v, want guided", got)
	}
	if h := sys.Health(); h.Mode != ModeGuided {
		t.Fatalf("Health.Mode = %v, want guided", h.Mode)
	}
	sys.DisableGuidance()
	if got := sys.Mode(); got != ModeUnguided {
		t.Fatalf("mode after DisableGuidance = %v, want unguided", got)
	}
}
