package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the tail ranks a timing may report, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail reports the highest percentile of xs that still has at least
// ten samples beyond it — below that, a tail rank is a single outlier
// rather than a measurement. The label names the rank used, so a run
// too short for p99 says so instead of mislabelling its p95.
func tail(xs []float64) (value float64, label string) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(100-p)/100 >= 10 {
			return quantile(xs, p/100), fmt.Sprintf("p%g of %d samples", p, len(xs))
		}
	}
	return quantile(xs, 0.5), fmt.Sprintf("p50 of %d samples", len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
