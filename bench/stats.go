package main

// quantileUs is the nearest-rank q-quantile of sorted nanosecond samples, in
// microseconds.
func quantileUs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(int(q*float64(len(sorted))), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
