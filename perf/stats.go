package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// percentile returns the p-quantile (0 < p < 1) of sorted samples by the
// nearest-rank rule. Above the median it refuses unless at least
// tailSamples samples lie beyond the returned one, so a reported tail is
// never a single outlier.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(p * float64(n)))
	if p > 0.5 && n-rank < tailSamples {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, n-rank, tailSamples)
	}
	return sorted[max(rank, 1)-1], nil
}

// median sorts a copy, so callers keep their sample order.
func median(samples []float64) float64 {
	s := sortedCopy(samples)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (exclusive method), the rule the
// benchmark's acceptance spread is defined by. It needs two samples.
func quartiles(samples []float64) (q1, q3 float64) {
	s := sortedCopy(samples)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		lo := min(max(int(pos), 1), n-1)
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// driftShare compares the medians of the first and second half of a run
// in sample order: |p50 first − p50 second| ÷ p50.
func driftShare(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	half := len(samples) / 2
	return ratio(math.Abs(median(samples[:half])-median(samples[half:])), median(samples))
}

// ratio is a ÷ b, or 0 where b is 0: a share of nothing is reported as
// nothing, and JSON has no NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
