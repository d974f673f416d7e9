// Package delta implements the write-optimized delta partition of a column
// (paper §3): an uncompressed append-only value vector plus a CSB+ tree
// over the distinct values, each tree entry carrying the list of tuple
// positions where the value occurs.
//
// Inserts append to the vector and update the tree in O(log unique).
// The merge Step 1(a) consumes the partition through ExtractDict (optimized
// path: sorted dictionary plus per-tuple codes via the posting lists) or
// SortedUnique (naive path: dictionary only).
package delta

import (
	"fmt"
	"sort"

	"hyrise/internal/csbtree"
	"hyrise/internal/dict"
	"hyrise/internal/par"
	"hyrise/internal/val"
)

// Partition is a single column's delta.  Create with New.
type Partition[V val.Value] struct {
	values []V
	tree   *csbtree.Tree[V]
}

// New returns an empty delta partition.
func New[V val.Value]() *Partition[V] {
	return &Partition[V]{tree: csbtree.New[V]()}
}

// NewWithFanout is New with an explicit CSB+ fanout (tests).
func NewWithFanout[V val.Value](k int) *Partition[V] {
	return &Partition[V]{tree: csbtree.NewWithFanout[V](k)}
}

// Insert appends v and indexes it; it returns the tuple position within the
// delta partition.
func (p *Partition[V]) Insert(v V) int {
	pos := len(p.values)
	if pos > 1<<31-2 {
		panic("delta: partition exceeds 2^31 tuples")
	}
	p.values = append(p.values, v)
	p.tree.Insert(v, int32(pos))
	return pos
}

// Len returns the number of tuples (N_D).
func (p *Partition[V]) Len() int { return len(p.values) }

// Unique returns the number of distinct values (|U_D|).
func (p *Partition[V]) Unique() int { return p.tree.Unique() }

// Get returns the uncompressed value at delta position i.
func (p *Partition[V]) Get(i int) V { return p.values[i] }

// Values exposes the backing vector; callers must not mutate it.
func (p *Partition[V]) Values() []V { return p.values }

// Find returns the delta positions holding value v, in insertion order.
func (p *Partition[V]) Find(v V) ([]int32, bool) { return p.tree.Find(v) }

// FindRange appends the delta positions holding values in [lo, hi] (both
// inclusive) to dst and returns the extended slice, sorted ascending by
// position.  It walks only the tree leaves inside the bounds, so a
// selective probe is O(log |U_D| + k) — the delta-side counterpart of the
// main partition's group-key index (internal/index).  The appended span is
// sorted so indexed read paths emit positions in the same order a linear
// scan of the value vector would.
func (p *Partition[V]) FindRange(lo, hi V, dst []int32) []int32 {
	base := len(dst)
	p.tree.AscendRange(lo, hi, func(_ V, tids []int32) bool {
		dst = append(dst, tids...)
		return true
	})
	out := dst[base:]
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return dst
}

// SizeBytes estimates memory: uncompressed values plus the tree.
func (p *Partition[V]) SizeBytes() int {
	return val.SliceBytes(p.values) + p.tree.SizeBytes()
}

// SortedUnique returns the distinct values in ascending order by an
// in-order traversal of the tree leaves — naive Step 1(a), O(|U_D|).
func (p *Partition[V]) SortedUnique() []V {
	out := make([]V, 0, p.tree.Unique())
	p.tree.Ascend(func(v V, _ []int32) bool {
		out = append(out, v)
		return true
	})
	return out
}

// ExtractDict is the optimized Step 1(a) (paper §5.3 "Modified Step 1(a)"):
// one in-order leaf traversal builds the sorted delta dictionary U_D and,
// through each value's tuple-id posting list, rewrites the delta partition
// into fixed-width dictionary codes.  codes[i] is the U_D index of tuple i.
// Each tuple is visited exactly once, so the run time is O(N_D).
func (p *Partition[V]) ExtractDict() (*dict.Dict[V], []uint32) {
	values := make([]V, 0, p.tree.Unique())
	codes := make([]uint32, len(p.values))
	p.tree.Ascend(func(v V, tids []int32) bool {
		c := uint32(len(values))
		values = append(values, v)
		for _, tid := range tids {
			codes[tid] = c
		}
		return true
	})
	return dict.FromSorted(values), codes
}

// ExtractDictParallel is ExtractDict with the scatter phase cut into nt
// pieces run through par.Do (paper §6.2.1 scheme (ii)): the dictionary
// build is a single-threaded traversal that also records, per distinct
// value, the span of tuple ids to rewrite; the spans are then partitioned
// evenly and each piece scatters codes independently.
func (p *Partition[V]) ExtractDictParallel(nt int) (*dict.Dict[V], []uint32) {
	if nt <= 1 || len(p.values) < 1<<14 {
		return p.ExtractDict()
	}
	values := make([]V, 0, p.tree.Unique())
	flat := make([]int32, 0, len(p.values))
	starts := make([]int32, 0, p.tree.Unique()+1)
	p.tree.Ascend(func(v V, tids []int32) bool {
		starts = append(starts, int32(len(flat)))
		values = append(values, v)
		flat = append(flat, tids...)
		return true
	})
	starts = append(starts, int32(len(flat)))

	codes := make([]uint32, len(p.values))
	nv := len(values)
	par.Do(nt, func(w int) {
		for v := nv * w / nt; v < nv*(w+1)/nt; v++ {
			c := uint32(v)
			for _, tid := range flat[starts[v]:starts[v+1]] {
				codes[tid] = c
			}
		}
	})
	return dict.FromSorted(values), codes
}

// Validate checks internal invariants (test support): vector length equals
// tree total, every vector value is findable, tree uniques equal the
// distinct count of the vector.
func (p *Partition[V]) Validate() error {
	if p.tree.Total() != len(p.values) {
		return fmt.Errorf("delta: tree total %d != vector len %d", p.tree.Total(), len(p.values))
	}
	seen := make(map[V]struct{}, p.tree.Unique())
	for i, v := range p.values {
		seen[v] = struct{}{}
		tids, ok := p.tree.Find(v)
		if !ok {
			return fmt.Errorf("delta: value at %d not indexed", i)
		}
		found := false
		for _, t := range tids {
			if int(t) == i {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("delta: position %d missing from posting list", i)
		}
	}
	if len(seen) != p.tree.Unique() {
		return fmt.Errorf("delta: distinct %d != tree unique %d", len(seen), p.tree.Unique())
	}
	return nil
}
