package gstm_test

import (
	"context"
	"testing"

	"gstm/internal/libtm"
	"gstm/internal/telemetry"
	"gstm/internal/tl2"
)

// TestCommitLatencySampling pins the 1-in-SampleEvery commit sampling of
// both engines: k·SampleEvery commits on one thread add exactly k commit
// latency samples. In tl2, read-only fast-path commits and read-write
// commits that skip validation add no validation sample, and a read-write
// commit whose read set is validated, because another commit advanced the
// clock between its read and its commit, adds one. LibTM validates at
// access time and never adds one.
func TestCommitLatencySampling(t *testing.T) {
	const k = 3
	const n = k * telemetry.SampleEvery

	t.Run("tl2", func(t *testing.T) {
		rt := tl2.New(tl2.Config{PrivateClock: true})
		t.Cleanup(rt.Telemetry().Unregister)
		a, b := tl2.NewVar(0), tl2.NewVar(0)
		counts := func() (commit, validation uint64) {
			s := rt.Telemetry().Snapshot()
			return s.CommitLatency.Count, s.ValidationLatency.Count
		}

		// Read-write commits on one thread: nothing else ticks the
		// private clock, so no commit validates.
		for i := 0; i < n; i++ {
			if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
				tl2.Write(tx, a, tl2.Read(tx, a)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if c, v := counts(); c != k || v != 0 {
			t.Fatalf("after %d read-write commits: %d commit / %d validation samples, want %d / 0", n, c, v, k)
		}

		// Read-only fast-path commits: sampled like any commit, and they
		// never validate at commit.
		for i := 0; i < n; i++ {
			if err := rt.Run(context.Background(), 0, 0, func(tx *tl2.Tx) error {
				_ = tl2.Read(tx, a)
				return nil
			}, true, 0); err != nil {
				t.Fatal(err)
			}
		}
		if c, v := counts(); c != 2*k || v != 0 {
			t.Fatalf("after %d read-only commits: %d commit / %d validation samples, want %d / 0", n, c, v, 2*k)
		}

		// SampleEvery-1 more commits put thread 0's next commit on the
		// sample; in it, another thread commits between this transaction's
		// read and its commit, so the commit must validate its read set.
		for i := 0; i < telemetry.SampleEvery-1; i++ {
			if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
				tl2.Write(tx, a, tl2.Read(tx, a)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if c, v := counts(); c != 2*k || v != 0 {
			t.Fatalf("before the validating commit: %d commit / %d validation samples, want %d / 0", c, v, 2*k)
		}
		interloped := false
		if err := rt.Atomic(0, 0, func(tx *tl2.Tx) error {
			x := tl2.Read(tx, a)
			if !interloped {
				interloped = true
				done := make(chan error)
				go func() {
					done <- rt.Atomic(1, 0, func(tx *tl2.Tx) error {
						tl2.Write(tx, b, tl2.Read(tx, b)+1)
						return nil
					})
				}()
				if err := <-done; err != nil {
					return err
				}
			}
			tl2.Write(tx, a, x+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if s := rt.Telemetry().Snapshot(); s.Aborts != 0 {
			t.Fatalf("%d aborts: the validating commit must commit first time", s.Aborts)
		}
		if c, v := counts(); c != 2*k+1 || v != 1 {
			t.Fatalf("after the validating commit: %d commit / %d validation samples, want %d / 1", c, v, 2*k+1)
		}
	})

	t.Run("libtm", func(t *testing.T) {
		rt := libtm.New(libtm.Config{})
		t.Cleanup(rt.Telemetry().Unregister)
		o := libtm.NewObj(0)
		for i := 0; i < n; i++ {
			if err := rt.Atomic(0, 0, func(tx *libtm.Tx) error {
				libtm.Write(tx, o, libtm.Read(tx, o)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		s := rt.Telemetry().Snapshot()
		if s.CommitLatency.Count != k || s.ValidationLatency.Count != 0 {
			t.Fatalf("after %d commits: %d commit / %d validation samples, want %d / 0",
				n, s.CommitLatency.Count, s.ValidationLatency.Count, k)
		}
	})
}
