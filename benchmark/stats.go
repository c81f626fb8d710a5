package main

import (
	"math"
	"sort"
)

// tailQuantiles are the tail percentiles a timing may report, highest
// first. A percentile is reported only when at least minBeyond samples lie
// beyond it, so a tail is never one unlucky sample.
var tailQuantiles = []struct {
	q    float64
	name string
}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}}

const minBeyond = 10

// dist summarizes one timing distribution: its median and the highest
// percentile in tailQuantiles with at least minBeyond samples beyond it
// (Q names it).
type dist struct {
	N    int
	P50  float64
	Q    string // "p99", "p90", ...; "" when no percentile qualifies
	Tail float64
	Max  float64
}

// summarize applies the percentile rule to xs (which it sorts).
func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Float64s(xs)
	d.P50 = median(xs)
	d.Max = xs[len(xs)-1]
	for _, tq := range tailQuantiles {
		i := rankIndex(len(xs), tq.q)
		if len(xs)-(i+1) >= minBeyond {
			d.Q, d.Tail = tq.name, xs[i]
			break
		}
	}
	return d
}

// tailOrMax is the tail percentile when one qualifies, else the maximum: a
// workload with too few samples for any percentile reports its worst case
// and says so (see label).
func (d dist) tailOrMax() float64 {
	if d.Q != "" {
		return d.Tail
	}
	return d.Max
}

// label names the statistic tailOrMax returned, e.g. "p99" or "max".
func (d dist) label() string {
	if d.Q == "" {
		return "max"
	}
	return d.Q
}

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// median of sorted xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianOf returns the median of an unsorted copy of xs.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return median(c)
}
