package main

import (
	"math"
	"sort"
)

// summary is how every timed quantity is reported: the phase is cut
// into slices, each slice yields one value, and the reported value is
// the median slice. Quartiles and the sample count sit beside it so a
// reader can judge the spread without re-running.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Slices []float64 `json:"slices"`
}

func summarize(slices []float64) summary {
	s := summary{N: len(slices), Slices: slices}
	if len(slices) == 0 {
		return s
	}
	s.Median = median(slices)
	s.Q1, s.Q3 = quartiles(slices)
	return s
}

// inf marks a lost packet's latency.
var inf = math.Inf(1)

func sorted(v []float64) []float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c
}

// median of v; +Inf values (lost packets) sort last, so a median is
// finite exactly when more than half of the samples arrived.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := sorted(v)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), because that
// is what the acceptance check of this benchmark computes. With fewer
// than two values both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	c := sorted(v)
	n := len(c)
	if n < 2 {
		if n == 1 {
			return c[0], c[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / m)
}

// tailPercentile picks the highest percentile that still has at least
// minBeyond samples beyond it, from the ladder 50, 90, 99, 99.9, 99.99
// and returns it with its value over sorted samples. Ten samples
// beyond is what makes a tail figure repeatable; with fewer than
// 2*minBeyond samples only the median qualifies.
func tailPercentile(sortedSamples []float64, minBeyond int) (pct, value float64) {
	n := len(sortedSamples)
	if n == 0 {
		return 50, math.NaN()
	}
	pct = 50
	for _, step := range []struct {
		pct     float64
		oneInto int // one sample in this many lies beyond the percentile
	}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}} {
		if n >= minBeyond*step.oneInto {
			pct = step.pct
		}
	}
	return pct, percentile(sortedSamples, pct)
}

// percentile of already sorted samples (nearest rank).
func percentile(sortedSamples []float64, pct float64) float64 {
	n := len(sortedSamples)
	if n == 0 {
		return math.NaN()
	}
	// The small slack keeps 99.9% of 10000 at rank 9990, not 9991.
	i := int(math.Ceil(pct*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sortedSamples[i]
}
