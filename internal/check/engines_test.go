package check_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"gstm/internal/check"
	"gstm/internal/libtm"
	"gstm/internal/tl2"
	"gstm/internal/txid"
)

// A target runs one transaction of thread th over its two locations: it writes
// i to both if i > 0 and reads both if i == 0.
type target func(rec *check.Recorder, th txid.ThreadID, i int64) error

func body[Tx, L any](rec *check.Recorder, i int64, locs [2]L, read func(Tx, L) int64, write func(Tx, L, int64)) func(Tx) error {
	return func(tx Tx) error {
		rec.Begin()
		for loc, x := range locs {
			if i > 0 {
				write(tx, x, rec.Write(loc, i))
			} else {
				rec.Read(loc, read(tx, x))
			}
		}
		return nil
	}
}

// tl2Target runs Run: Atomic's path, or for reads the read-only one if readOnly.
func tl2Target(readOnly bool) target {
	rt, v := tl2.New(tl2.Config{Interleave: 2}), [2]*tl2.Var[int64]{tl2.NewVar[int64](0), tl2.NewVar[int64](0)}
	return func(rec *check.Recorder, th txid.ThreadID, i int64) error {
		fn := body(rec, i, v, tl2.Read[int64], tl2.Write[int64])
		return rec.Done(rt.Run(nil, th, txid.TxnID(th), fn, readOnly && i == 0, 0))
	}
}

func libtmTarget() target {
	rt, o := libtm.New(libtm.Config{Interleave: 2}), [2]*libtm.Obj[int64]{libtm.NewObj[int64](0), libtm.NewObj[int64](0)}
	return func(rec *check.Recorder, th txid.ThreadID, i int64) error {
		return rec.Done(rt.Atomic(th, txid.TxnID(th), body(rec, i, o, libtm.Read[int64], libtm.Write[int64])))
	}
}

// TestTwoVarOpacity generates the two-location history on three engine entry
// points: thread 0 commits both = 1, 2, ... until thread 1 has run reads
// transactions that read both, and check.Opacity decides every attempt.
func TestTwoVarOpacity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reads int
		run   target
	}{
		{"tl2-atomic", 2000, tl2Target(false)},
		{"tl2-readonly", 2000, tl2Target(true)},
		{"libtm-atomic", 1500, libtmTarget()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w, r check.Recorder
			var stop atomic.Bool
			done := make(chan error)
			go func() {
				var err error
				for i := int64(1); err == nil && !stop.Load(); i++ {
					err = tc.run(&w, 0, i)
				}
				done <- err
			}()
			var err error
			for j := 0; err == nil && j < tc.reads; j++ {
				err = tc.run(&r, 1, 0)
			}
			stop.Store(true)
			if err = errors.Join(err, <-done); err == nil {
				err = check.Opacity(w, r)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
