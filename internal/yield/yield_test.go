package yield

import (
	"math"
	"testing"
)

// TestPolicy pins the yield counts: the Backoff and Hold tiers at their
// edges, and the Op roll's rate at n <= 0, n = 1 and n = 4.
func TestPolicy(t *testing.T) {
	const rolls = 100_000
	// rate is the share of a fresh Op's rolls that come up at 1 in n. At
	// n <= 0 it drives Yield, which must not roll at all.
	rate := func(n int) float64 {
		var o Op
		if n <= 0 {
			o.Yield(n)
			if o.x != 0 {
				return 1 // it rolled
			}
			return 0
		}
		hits := 0
		for i := 0; i < rolls; i++ {
			if o.roll(n) {
				hits++
			}
		}
		return float64(hits) / rolls
	}
	for _, c := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"backoff(0)", float64(backoffYields(0)), 0, 0},
		{"backoff(1)", float64(backoffYields(1)), 0, 0},
		{"backoff(2)", float64(backoffYields(2)), 1, 0},
		{"backoff(7)", float64(backoffYields(7)), 1, 0},
		{"backoff(8)", float64(backoffYields(8)), 4, 0},
		{"backoff(31)", float64(backoffYields(31)), 4, 0},
		{"backoff(32)", float64(backoffYields(32)), 16, 0},
		{"backoff(100)", float64(backoffYields(100)), 16, 0},
		{"hold(0)", float64(holdYields(0)), 1, 0},
		{"hold(1)", float64(holdYields(1)), 1, 0},
		{"hold(2)", float64(holdYields(2)), 1, 0},
		{"hold(7)", float64(holdYields(7)), 1, 0},
		{"hold(8)", float64(holdYields(8)), 4, 0},
		{"hold(31)", float64(holdYields(31)), 4, 0},
		{"hold(32)", float64(holdYields(32)), 16, 0},
		{"hold(100)", float64(holdYields(100)), 16, 0},
		{"op(-1)", rate(-1), 0, 0},
		{"op(0)", rate(0), 0, 0},
		{"op(1)", rate(1), 1, 0},
		{"op(4)", rate(4), 0.25, 0.02},
	} {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %v, want %v ± %v", c.name, c.got, c.want, c.tol)
		}
	}
}
