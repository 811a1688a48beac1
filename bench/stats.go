package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns v sorted ascending without touching the caller's slice.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of v by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the driver computes spreads with; a
// spread printed here is the spread the driver will see.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0], v[0]
		}
		return 0, 0, 0
	}
	s := sortedCopy(v)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailQuantile picks the highest of p99/p95/p90 that leaves at least ten
// samples beyond it, so a tail is only ever reported where the sample can
// support it; with fewer than 100 samples it falls back to the maximum and
// says so through the returned label.
func tailQuantile(v []float64) (value float64, label string) {
	n := len(v)
	switch {
	case n >= 1000:
		return quantile(v, 0.99), "p99"
	case n >= 200:
		return quantile(v, 0.95), "p95"
	case n >= 100:
		return quantile(v, 0.90), "p90"
	default:
		return quantile(v, 1), "max"
	}
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
