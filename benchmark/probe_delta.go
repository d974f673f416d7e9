package main

import (
	"math/rand"
	"time"

	"hyrise/internal/delta"
)

// probeDelta times inserts into one uncompressed delta partition (value
// append plus CSB+ tree insert) at the amount column's ~50% unique mix.
func probeDelta(ms metricSet, seed int64) {
	const n = 100_000
	rng := rand.New(rand.NewSource(seed))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(n * 10 / 16))
	}
	p := delta.New[uint64]()
	t0 := time.Now()
	for _, v := range vals {
		p.Insert(v)
	}
	ms.put("delta.insert_ns", float64(time.Since(t0))/n)
}
