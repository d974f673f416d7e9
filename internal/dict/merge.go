package dict

import (
	"hyrise/internal/par"
	"hyrise/internal/val"
)

// Merge performs Step 1(b) (paper §5.3, "Modified Step 1(b)"): one sorted
// merge of the main dictionary m (U_M) and the delta dictionary d (U_D) with
// duplicate elimination that writes U'_M and the translation tables X_M and
// X_D, so Step 2 costs one lookup per tuple.  Run time is O(|U_M| + |U_D|).
// deadM and deadD (nil: none) mark the entries no surviving tuple
// references; their values stay out of U'_M unless the other input holds
// the same value live.
//
// With nt > 1 it follows the paper's three-phase scheme (§6.2.1): coRank
// cuts the input into nt ranges of equal length, a count pass and an
// exclusive prefix sum give each range its write offset, and par.Do runs
// each range's write loop there.  No cut separates a value both inputs
// hold, so no range repairs a boundary duplicate, and the result is the
// same at every nt.
func Merge[V val.Value](m, d *Dict[V], deadM, deadD []bool, nt int) MergeResult[V] {
	a, b := m.values, d.values
	nt = max(1, min(nt, len(a)+len(b)))
	xm, xd := marked(deadM, len(a)), marked(deadD, len(b))
	parts := make([]part[V], nt)
	var loA, loB int
	for i := range parts {
		hiA, hiB := cutAt(a, b, (len(a)+len(b))*(i+1)/nt)
		parts[i] = part[V]{a[loA:hiA], b[loB:hiB], xm[loA:hiA], xd[loB:hiB]}
		loA, loB = hiA, hiB
	}

	// offset[i] is where range i writes.  A serial merge writes into a
	// buffer as long as both inputs and keeps the prefix it filled.
	offset := make([]int, nt+1)
	offset[nt] = len(a) + len(b)
	if nt > 1 {
		par.Do(nt, func(i int) { offset[i+1] = parts[i].count() })
		for i := 1; i <= nt; i++ {
			offset[i] += offset[i-1]
		}
	}
	merged := make([]V, offset[nt])
	par.Do(nt, func(i int) {
		if end := parts[i].write(merged, offset[i]); i == nt-1 {
			offset[nt] = end
		}
	})
	return MergeResult[V]{Merged: &Dict[V]{values: merged[:offset[nt]]}, XM: xm, XD: xd}
}

// cutAt is coRank's split at output rank k, moved one step further in b
// when it would separate a value both inputs hold: coRank breaks ties
// towards a, so that value's a copy would end one range and its b copy
// start the next.
func cutAt[V val.Value](a, b []V, k int) (int, int) {
	i, j := coRank(a, b, k)
	if i > 0 && j < len(b) && a[i-1] == b[j] {
		j++
	}
	return i, j
}

// part is one range of a merge: slices of both inputs and of their
// translation tables.  Until the write loop replaces it by a code, each
// table entry is a flag: 1 where the input entry is dead, 0 where live.
type part[V val.Value] struct {
	a, b   []V
	xm, xd []uint32
}

// marked allocates a translation table of n flags, set where dead is.
func marked(dead []bool, n int) []uint32 {
	x := make([]uint32, n)
	for i, d := range dead {
		if d {
			x[i] = 1
		}
	}
	return x
}

// write is Step 1(b)'s write loop: it merges the range, writes each value
// a live entry holds once to merged from out on, replaces every entry's
// flag by its code (see put) and returns the offset after the last value
// written.
func (p part[V]) write(merged []V, out int) int {
	a, b, xm, xd := p.a, p.b, p.xm, p.xd
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			xm[i], out = put(merged, out, a[i], xm[i])
			i++
		case a[i] > b[j]:
			xd[j], out = put(merged, out, b[j], xd[j])
			j++
		default: // one value in both inputs: kept if either copy is live
			xm[i], out = put(merged, out, a[i], xm[i]&xd[j])
			xd[j] = xm[i]
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		xm[i], out = put(merged, out, a[i], xm[i])
	}
	for ; j < len(b); j++ {
		xd[j], out = put(merged, out, b[j], xd[j])
	}
	return out
}

// count returns how many values write writes for the range.  A flag is 0
// or 1, so flag^1 counts a live entry.
func (p part[V]) count() int {
	a, b, xm, xd := p.a, p.b, p.xm, p.xd
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			n, i = n+int(xm[i]^1), i+1
		case a[i] > b[j]:
			n, j = n+int(xd[j]^1), j+1
		default:
			n, i, j = n+int(xm[i]&xd[j]^1), i+1, j+1
		}
	}
	for _, f := range xm[i:] {
		n += int(f ^ 1)
	}
	for _, f := range xd[j:] {
		n += int(f ^ 1)
	}
	return n
}

// put writes v at merged[out] unless dead is set, and returns the code of
// the value written — or, for a dead entry, of the value before it (0 if
// there is none) — and the offset after it.
func put[V val.Value](merged []V, out int, v V, dead uint32) (uint32, int) {
	if dead == 0 {
		merged[out] = v
		return uint32(out), out + 1
	}
	return uint32(max(out, 1) - 1), out
}

// coRank returns the split point (i, j) with i+j = k such that merging
// a[:i] and b[:j] yields exactly the first k elements of the full merge of
// a and b, with ties broken towards a (an equal element of a precedes the
// equal element of b).  Both inputs must be sorted; within each input
// elements are unique (dictionaries), so duplicates only occur across the
// two inputs.  Runs in O(log(min(len(a), len(b)))).
func coRank[V val.Value](a, b []V, k int) (int, int) {
	lo, hi := max(k-len(b), 0), min(k, len(a))
	for lo < hi {
		i := (lo + hi) / 2
		j := k - i
		// Feasibility of taking i elements from a and j from b:
		//   (1) a[i-1] <= b[j]  — the last a element really belongs in the
		//       prefix (equality allowed: ties go to a);
		//   (2) b[j-1] <  a[i]  — the last b element precedes the next a
		//       element (equality NOT allowed: the equal a element must be
		//       consumed first).
		if i < len(a) && j > 0 && b[j-1] >= a[i] {
			lo = i + 1 // need more elements from a
		} else if i > 0 && j < len(b) && a[i-1] > b[j] {
			hi = i - 1 // took too many from a
		} else {
			return i, j
		}
	}
	return lo, k - lo
}
