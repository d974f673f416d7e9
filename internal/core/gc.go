package core

import (
	"sort"

	"hyrise/internal/bitpack"
)

// Drop is the reclamation decision of one garbage-collecting merge: which
// positions of main ++ delta (main tuples first, then delta tuples) the new
// main omits.  It is made once per table merge (DropAt) and shared,
// read-only, by every column's MergeColumnDrop.  The zero Drop drops
// nothing.
type Drop struct {
	// Mask has one entry per tuple of main ++ delta, true where dropped.
	Mask []bool
	// Pos lists the positions set in Mask in ascending order; its length
	// is the number of tuples dropped.
	Pos []int
}

// NewDrop builds the Drop of a mask over n tuples: positions beyond the
// mask are kept, entries beyond n are ignored.  An all-false mask yields the
// zero Drop.
func NewDrop(mask []bool, n int) Drop {
	mask = mask[:min(len(mask), n)]
	var pos []int
	for i, dropped := range mask {
		if dropped {
			pos = append(pos, i)
		}
	}
	if len(pos) == 0 {
		return Drop{}
	}
	if len(mask) < n {
		mask = append(make([]bool, 0, n), mask...)[:n]
	}
	return Drop{Mask: mask, Pos: pos}
}

// DropAt builds the Drop of the ascending positions pos among n tuples; no
// position yields the zero Drop.  The table's merge freeze collects pos
// from the dead versions alone, so only the mask is O(n).
func DropAt(pos []int, n int) Drop {
	if len(pos) == 0 {
		return Drop{}
	}
	mask := make([]bool, n)
	for _, p := range pos {
		mask[p] = true
	}
	return Drop{Mask: mask, Pos: pos}
}

// survivor returns the input position of the k-th tuple that is not dropped
// (0-based), or the tuple count when k is the number of survivors: a
// dropped position p at index j of Pos has p-j survivors before it, so the
// k-th survivor follows exactly the dropped positions with p-j <= k.
func (d Drop) survivor(k int) int {
	return k + sort.Search(len(d.Pos), func(j int) bool { return d.Pos[j]-j > k })
}

// unreferenced reports, per code of the main's and the delta's dictionary,
// whether no surviving tuple references it.  Every code is presumed
// referenced (each dictionary entry has at least one tuple); only the codes
// at dropped positions are in doubt, and each is cleared by the first
// surviving tuple found to carry it.  The witness scan stops when no code is
// in doubt any more, so a low-cardinality column costs O(dropped) plus a
// short prefix; only a column where some value really vanishes — every
// dropped tuple of a unique key — is scanned to the end.
func unreferenced(codes *bitpack.Vector, deltaCodes []uint32, uniqueM, uniqueD int, drop Drop) (deadM, deadD []bool) {
	deadM, deadD = make([]bool, uniqueM), make([]bool, uniqueD)
	nm := codes.Len()
	inDoubt := 0
	for _, p := range drop.Pos {
		dead, c := deadM, uint64(0)
		if p < nm {
			c = codes.Get(p)
		} else {
			dead, c = deadD, uint64(deltaCodes[p-nm])
		}
		if !dead[c] {
			dead[c] = true
			inDoubt++
		}
	}
	var buf [step2Block]uint64
	for i := 0; i < nm && inDoubt > 0; i += step2Block {
		blk := codes.DecodeRange(i, min(i+step2Block, nm), buf[:])
		for j, dropped := range drop.Mask[i : i+len(blk)] {
			if c := blk[j]; deadM[c] && !dropped {
				deadM[c] = false
				inDoubt--
			}
		}
	}
	for j := 0; j < len(deltaCodes) && inDoubt > 0; j++ {
		if c := deltaCodes[j]; deadD[c] && !drop.Mask[nm+j] {
			deadD[c] = false
			inDoubt--
		}
	}
	return deadM, deadD
}
