// Package dict implements the sorted, order-preserving dictionaries that
// compress main partitions (paper §3): the code for a value is its index in
// the sorted unique-value array, so range predicates on values translate to
// range predicates on codes and point lookups are binary searches.
//
// The package also implements the dictionary-merge half of the merge process
// (Step 1(b), §5.3/§6.2.1): Merge merges the main dictionary U_M with the
// delta dictionary U_D into U'_M with duplicate elimination while emitting
// the auxiliary translation tables X_M and X_D that make Step 2 linear.  It
// is one merge at every thread count — co-ranked ranges sized by a count
// pass and a prefix sum when there are several — and it leaves out the
// entries a garbage-collecting merge marks dead.  MergeNoAux is the naive
// baseline's merge, which emits no tables (§5.2).
package dict

import (
	"fmt"
	"sort"

	"hyrise/internal/val"
)

// Dict is an immutable sorted array of unique values.  Code i encodes
// Values()[i].  The zero value is an empty dictionary.
type Dict[V val.Value] struct {
	values []V
}

// FromSorted wraps values, which must already be strictly increasing.  The
// slice is retained, not copied.  It panics if the order invariant is
// violated.
func FromSorted[V val.Value](values []V) *Dict[V] {
	for i := 1; i < len(values); i++ {
		if values[i-1] >= values[i] {
			panic(fmt.Sprintf("dict: values not strictly increasing at %d", i))
		}
	}
	return &Dict[V]{values: values}
}

// FromUnsorted sorts and deduplicates a copy of values.
func FromUnsorted[V val.Value](values []V) *Dict[V] {
	cp := make([]V, len(values))
	copy(cp, values)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:0]
	for i, v := range cp {
		if i == 0 || v != cp[i-1] {
			out = append(out, v)
		}
	}
	return &Dict[V]{values: out}
}

// Len returns the number of unique values.
func (d *Dict[V]) Len() int { return len(d.values) }

// At returns the value encoded by code i.
func (d *Dict[V]) At(i int) V { return d.values[i] }

// Values exposes the backing sorted slice; callers must not mutate it.
func (d *Dict[V]) Values() []V { return d.values }

// Lookup binary-searches for v and returns its code.
func (d *Dict[V]) Lookup(v V) (code int, ok bool) {
	i := d.LowerBound(v)
	if i < len(d.values) && d.values[i] == v {
		return i, true
	}
	return 0, false
}

// LowerBound returns the smallest index i with Values()[i] >= v, possibly
// Len().  Range selections on values map to the code interval
// [LowerBound(lo), LowerBound(hi+ε)).
func (d *Dict[V]) LowerBound(v V) int {
	return sort.Search(len(d.values), func(i int) bool { return d.values[i] >= v })
}

// UpperBound returns the smallest index i with Values()[i] > v.
func (d *Dict[V]) UpperBound(v V) int {
	return sort.Search(len(d.values), func(i int) bool { return d.values[i] > v })
}

// SizeBytes returns the payload bytes of the dictionary values.
func (d *Dict[V]) SizeBytes() int { return val.SliceBytes(d.values) }

// MergeResult is the output of Step 1(b): the merged dictionary and the two
// auxiliary translation tables.  XM[c] is the new code of old main code c,
// XD[c] that of delta-dictionary code c.  A dead entry whose value Merge
// drops maps to the code of the nearest kept value below it (0 if none).
type MergeResult[V val.Value] struct {
	Merged *Dict[V]
	XM, XD []uint32
}

// MergeNoAux is the naive Step 1(b): it produces only the merged dictionary.
// Step 2 must then locate every value by binary search (paper §5.2).
func MergeNoAux[V val.Value](m, d *Dict[V]) *Dict[V] {
	a, b := m.values, d.values
	merged := make([]V, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			merged = append(merged, a[i])
			i++
		case a[i] > b[j]:
			merged = append(merged, b[j])
			j++
		default:
			merged = append(merged, a[i])
			i++
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	return &Dict[V]{values: merged}
}
