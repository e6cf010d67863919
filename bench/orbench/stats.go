package main

import (
	"math"
	"sort"
)

// failedMs is how a failed request enters a latency sample: it misses
// every latency limit.
var failedMs = math.Inf(1)

// dist is a set of raw samples, read with nearest-rank percentiles.
// Samples are never bucketed, so a percentile is one observed value.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

// pct returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it. An
// empty set reads as failedMs.
func (d *dist) pct(p float64) float64 {
	if len(d.xs) == 0 {
		return failedMs
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d.xs) {
		rank = len(d.xs)
	}
	return d.xs[rank-1]
}

// supported returns the highest percentile that leaves at least ten
// samples beyond its rank, or 0 when there are ten samples or fewer. A
// percentile above it rests on fewer than ten observations.
func (d *dist) supported() float64 {
	n := len(d.xs)
	if n <= 10 {
		return 0
	}
	return 100 * float64(n-10) / float64(n)
}
