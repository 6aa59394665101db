package main

import (
	"math"
	"sort"
	"time"
)

// median of a sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive values; 0 for an empty input.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tail is the highest percentile of a sample that still has at least ten
// samples beyond it — the highest percentile a sample of this size can
// state without resting on a handful of values.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// tailOf returns the tail for sorted-or-not xs; ok is false when fewer
// than 11 samples exist, so no percentile has ten samples beyond it.
func tailOf(xs []float64) (tail, bool) {
	const beyond = 10
	n := len(xs)
	if n <= beyond {
		return tail{}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The value at sorted index i has n-1-i samples beyond it.
	i := n - 1 - beyond
	// Report the percentile as the share of samples at or below it,
	// floored to a whole percent so it reads like p90/p99.
	p := math.Floor(float64(i+1) / float64(n) * 100)
	return tail{Percentile: p, Value: s[i], Samples: n, Beyond: n - 1 - i}, true
}
