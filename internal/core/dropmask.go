package core

import "hyrise/internal/par"

// dropMaskChunk is the minimum per-worker range of the parallel drop-mask
// pass; below threads*dropMaskChunk rows the serial loop wins.
const dropMaskChunk = 8192

// DropMask evaluates a reclaim predicate over a table's begin/end epoch
// columns and returns the merge's Drop.  The predicate receives each
// version's validity interval and decides reclaimability (the table passes
// epoch.PinSet.Reclaimable), so the GC kernel itself is retention-policy-
// agnostic.  Positions are those MergeColumnDrop expects: main tuples
// first, then delta tuples, matching the order of the begin/end columns.
// When nothing is reclaimable the zero Drop is returned.
//
// The predicate must be pure and safe for concurrent use: with threads > 1
// and enough rows the pass is range-partitioned through par.Do, each piece
// writing a disjoint slice of the mask and collecting its own positions.
func DropMask(begin, end []uint64, reclaim func(begin, end uint64) bool, threads int) Drop {
	n := len(begin)
	nw := 1
	if threads > 1 && n >= 2*dropMaskChunk {
		nw = min(threads, (n+dropMaskChunk-1)/dropMaskChunk)
	}
	mask := make([]bool, n)
	found := make([][]int, nw)
	scan := func(k int) {
		var pos []int
		lo, hi := n*k/nw, n*(k+1)/nw
		for i := lo; i < hi; i++ {
			if reclaim(begin[i], end[i]) {
				mask[i] = true
				pos = append(pos, i)
			}
		}
		found[k] = pos
	}
	par.Do(nw, scan)
	pos := found[0]
	for _, f := range found[1:] {
		pos = append(pos, f...)
	}
	if len(pos) == 0 {
		return Drop{}
	}
	return Drop{Mask: mask, Pos: pos}
}
