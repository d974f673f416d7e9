package core

import "sync"

// dropMaskChunk is the minimum per-worker range of the parallel drop-mask
// pass; below threads*dropMaskChunk rows the serial loop wins.
const dropMaskChunk = 8192

// DropMask evaluates a reclaim predicate over a table's begin/end epoch
// columns and returns the merge-GC drop mask plus the number of positions
// marked.  The predicate receives each version's validity interval and
// decides reclaimability (the table passes epoch.PinSet.Reclaimable), so the
// GC kernel itself is retention-policy-agnostic.  The mask indexes positions exactly like MergeColumnGC
// expects: main tuples first, then delta tuples, matching the order of the
// begin/end columns.
//
// The predicate must be pure and safe for concurrent use: with threads > 1
// and enough rows the pass is range-partitioned, each worker writing a
// disjoint slice of the mask and accumulating a private count.
func DropMask(begin, end []uint64, reclaim func(begin, end uint64) bool, threads int) ([]bool, int) {
	n := len(begin)
	if n == 0 {
		return nil, 0
	}
	drop := make([]bool, n)
	if threads <= 1 || n < 2*dropMaskChunk {
		dropped := 0
		for i := 0; i < n; i++ {
			if reclaim(begin[i], end[i]) {
				drop[i] = true
				dropped++
			}
		}
		return drop, dropped
	}
	nw := threads
	if max := (n + dropMaskChunk - 1) / dropMaskChunk; nw > max {
		nw = max
	}
	counts := make([]int, nw)
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo, hi := n*k/nw, n*(k+1)/nw
			c := 0
			for i := lo; i < hi; i++ {
				if reclaim(begin[i], end[i]) {
					drop[i] = true
					c++
				}
			}
			counts[k] = c
		}(k)
	}
	wg.Wait()
	dropped := 0
	for _, c := range counts {
		dropped += c
	}
	return drop, dropped
}
