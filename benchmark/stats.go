package main

import (
	"math"
	"sort"
)

// quartiles returns the median and the first and third quartile of xs,
// computed like Python's statistics.quantiles(xs, n=4) (exclusive
// method) so the numbers here and the driver's agree.
func quartiles(xs []float64) (med, q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		return s[lo] + frac*(s[lo+1]-s[lo])
	}
	return at(0.5), at(0.25), at(0.75)
}

// latencySummary holds the percentiles of one class of operations over
// the whole window, in nanoseconds.
type latencySummary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ns"`
	P90     float64 `json:"p90_ns"`
	P95     float64 `json:"p95_ns"`
	Tail    float64 `json:"tail_ns"`
	TailPct float64 `json:"tail_pct"` // 99 where at least ten samples lie beyond p99
}

// summarize sorts ns in place.  The tail is p99 when at least ten samples
// lie beyond it, otherwise the highest percentile that still has ten
// beyond (the median when there are fewer than twenty samples).
func summarize(ns []int64) latencySummary {
	if len(ns) == 0 {
		return latencySummary{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	n := len(ns)
	s := latencySummary{
		N: n, TailPct: 99,
		P50: float64(ns[n/2]), P90: float64(ns[n*9/10]), P95: float64(ns[n*95/100]),
	}
	idx := n - 1 - n/100
	if n/100 < 10 {
		idx = max(n-11, n/2)
		s.TailPct = 100 * float64(idx+1) / float64(n)
	}
	s.Tail = float64(ns[idx])
	return s
}

// ratio is a/b, and 0 where there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
