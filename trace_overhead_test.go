// Traced-overhead gate for the variance observatory: attaching a span to a
// Run call must stay cheap enough to leave on in production serving. The
// traced commit reads the span clock (obs.Now, one monotonic read each)
// three times — lock start, lock end / publish start shared, publish end;
// four when validation runs — so its fixed cost is well under a
// microsecond; against a transaction with a non-trivial footprint that must
// stay under 5%.
//
// The comparison is noisy on shared runners, so the gate is opt-in
// (GSTM_OVERHEAD_GATE=1, set by CI's bench-smoke job) and judges the median
// of many short rounds' traced/untraced ratios.
package gstm_test

import (
	"context"
	"os"
	"slices"
	"testing"
	"time"

	"gstm/internal/obs"
	"gstm/internal/tl2"
)

// overheadTxns runs n read-modify-write transactions over every location
// of arr, traced when span is non-nil, and returns their mean cost in ns.
// The transaction is the denominator the traced fixed cost is measured
// against.
func overheadTxns(rt *tl2.Runtime, arr *tl2.Array[int], span *obs.Span, n int) float64 {
	ctx := context.Background()
	body := func(tx *tl2.Tx) error {
		for j := 0; j < arr.Len(); j++ {
			tl2.WriteAt(tx, arr, j, tl2.ReadAt(tx, arr, j)+1)
		}
		return nil
	}
	begin := time.Now().UnixNano()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		span.Start(uint32(i), 0, 0, 0, 1, false, begin)
		_ = rt.RunOpt(ctx, 0, 0, body, tl2.RunOpts{Span: span})
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func TestTracedRunOverheadGate(t *testing.T) {
	if os.Getenv("GSTM_OVERHEAD_GATE") == "" {
		t.Skip("set GSTM_OVERHEAD_GATE=1 to run the traced-overhead gate (CI bench-smoke)")
	}
	// Each round runs the two sides back to back on one runtime and array,
	// alternating which goes first (ABBA), so the second-run-in-a-round
	// position lands on both. A round lasts tens of milliseconds, so its
	// traced/untraced ratio pairs runs that saw the same machine state
	// (thermal, noisy neighbors) and drift between rounds cancels; the
	// median ratio discards the rounds a burst of noise hit on one side
	// only.
	const (
		rounds = 201
		txns   = 2000 // per side per round
	)
	rt := tl2.New(tl2.Config{})
	defer rt.Telemetry().Unregister()
	arr := tl2.NewArray[int](64)
	var sp obs.Span
	spans := [2]*obs.Span{nil, &sp}  // untraced, traced
	overheadTxns(rt, arr, &sp, txns) // warm-up
	ratios := make([]float64, rounds)
	var sum [2]float64
	for i := range rounds {
		var ns [2]float64
		for k := range 2 {
			side := k ^ i&1
			ns[side] = overheadTxns(rt, arr, spans[side], txns)
			sum[side] += ns[side]
		}
		ratios[i] = ns[1] / ns[0]
	}
	slices.Sort(ratios)
	overhead := 100 * (ratios[rounds/2] - 1)
	t.Logf("untraced %.0fns/txn, traced %.0fns/txn (means); median overhead %.2f%%, quartiles %.2f%% to %.2f%%",
		sum[0]/rounds, sum[1]/rounds, overhead, 100*(ratios[rounds/4]-1), 100*(ratios[3*rounds/4]-1))
	if overhead >= 5.0 {
		t.Fatalf("traced span overhead %.2f%% (median of %d rounds), gate is <5%%", overhead, rounds)
	}
}
