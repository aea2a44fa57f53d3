package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// xs with the same method as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), so spreads computed here match
// the ones the contract in BENCHMARK.json is judged by. No samples
// read 0, as a metric a run did not exercise does.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// A port of CPython's integer arithmetic, including its clamping
	// (which extrapolates for very small samples).
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// p99 returns the nearest-rank 99th percentile of xs, 0 for no
// samples. At least ten samples lie beyond it once there are a
// thousand; below that it approaches the maximum.
func p99(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.99*float64(len(s))))-1]
}
