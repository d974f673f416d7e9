package main

import (
	"math/rand"
	"time"

	"hyrise/internal/bitpack"
	"hyrise/internal/kernel"
)

// probeKernel times the scan kernels on a 2M-value packed vector at the
// code widths olap_scan's predicates run on: status (3 bits, equality),
// customer (16 bits, 1% range), then the epoch-visibility filter and a
// gather over the range's selection vector.
func probeKernel(ms metricSet, seed int64) {
	const n = 2_000_000
	rng := rand.New(rand.NewSource(seed))
	status := make([]uint64, n)
	customer := make([]uint64, n)
	begin := make([]uint64, n)
	end := make([]uint64, n)
	for i := range status {
		status[i] = uint64(rng.Intn(nStatus))
		customer[i] = uint64(rng.Intn(nCustomers))
		begin[i] = 1
		if i%16 == 0 {
			end[i] = 2 // an invalidated version the filter must drop
		}
	}
	sv := bitpack.FromSlice(bitpack.MinBits(nStatus), status)
	cv := bitpack.FromSlice(bitpack.MinBits(nCustomers), customer)

	mrows := func(rows int, d time.Duration) float64 { return float64(rows) / d.Seconds() / 1e6 }
	const reps = 5
	var sel []int32

	t0 := time.Now()
	for i := 0; i < reps; i++ {
		sel = kernel.MatchEqual(sv, uint64(i%nStatus), sel[:0])
	}
	ms.put("kernel.match_equal_mrows_per_s", mrows(reps*n, time.Since(t0)))

	t0 = time.Now()
	for i := 0; i < reps; i++ {
		lo := uint64(i * 1000)
		sel = kernel.MatchRange(cv, lo, lo+olapCustSpan-1, sel[:0])
	}
	ms.put("kernel.match_range_mrows_per_s", mrows(reps*n, time.Since(t0)))

	all := kernel.MatchRange(cv, 0, nCustomers, nil)
	scratch := make([]int32, len(all))
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		copy(scratch, all)
		kernel.FilterVisible(scratch, begin, end, 5)
	}
	ms.put("kernel.filter_visible_mrows_per_s", mrows(reps*len(all), time.Since(t0)))

	var sum uint64
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		kernel.Gather(cv, all, func(_ int32, code uint64) bool { sum += code; return true })
	}
	ms.put("kernel.gather_mrows_per_s", mrows(reps*len(all), time.Since(t0)))
	_ = sum
}
