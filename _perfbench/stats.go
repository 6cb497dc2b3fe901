package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of raw samples by linear
// interpolation between the two nearest ranks (the "type 7" estimator
// of R and NumPy's default). Every latency quantile the benchmark
// reports comes from here, over the raw per-request samples, never from
// bucketed histograms: bucket edges a factor of two apart hide any
// change smaller than 2x. The input is not modified; an empty input
// yields NaN.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// beyond counts the samples strictly above the q-quantile: a percentile
// is reported only when at least ten samples lie beyond it.
func beyond(samples []float64, q float64) int {
	v := quantile(samples, q)
	n := 0
	for _, x := range samples {
		if x > v {
			n++
		}
	}
	return n
}

// median is the 0.5-quantile.
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sum adds the samples.
func sum(samples []float64) float64 {
	t := 0.0
	for _, x := range samples {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (counters that saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// boolf reports a flag as 1 or 0.
func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
