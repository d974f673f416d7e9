package shard

import (
	"fmt"
	"sync"

	"hyrise/internal/table"
	"hyrise/internal/val"
)

// Handle is a typed single-column view over every partition of a store:
// key lookups, range selects and scans, returning global row ids.  Every
// method delegates to the same-named table.Handle method of each partition
// and combines the results, so a store of one partition reads exactly what
// — and as fast as — its partition does.  Methods without an At suffix read
// current rows; the At variants read through a View captured by
// Table.Snapshot, whose single epoch is valid across every partition — the
// fanned-out reads are consistent with each other even while writers,
// cross-partition moves and merges proceed.
//
// Lookup and Range probe all partitions in parallel and return ascending
// global row ids.  Scan visits partitions sequentially (partition 0 first),
// in per-partition insertion order.
//
// A handle covers the physical partitions that existed when it was
// resolved.  A Reshard appends partitions, so resolve a fresh handle after
// one to see rows the migration relocated; reads At an epoch captured
// before the handle was resolved remain complete on the old handle (row
// versions visible at that epoch never move to newer partitions).
type Handle[V val.Value] struct {
	hs []*table.Handle[V]
}

// ColumnOf resolves a typed handle for the named column across all
// physical partitions.
func ColumnOf[V val.Value](st *Table, name string) (*Handle[V], error) {
	parts := st.load().parts
	h := &Handle[V]{hs: make([]*table.Handle[V], 0, len(parts))}
	for _, s := range parts {
		sh, err := table.ColumnOf[V](s, name)
		if err != nil {
			return nil, err
		}
		h.hs = append(h.hs, sh)
	}
	return h, nil
}

// each runs fn on every partition's handle concurrently and returns the
// results in physical order.  A lone handle runs on the caller's goroutine.
func each[H, R any](hs []H, fn func(H) R) []R {
	if len(hs) == 1 {
		return []R{fn(hs[0])}
	}
	out := make([]R, len(hs))
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fn(h)
		}()
	}
	wg.Wait()
	return out
}

// globalIDs concatenates per-partition local id lists into one global id
// list.  Each list ascends in local id and the partition index sits in the
// high bits of a global id, so the concatenation ascends without sorting;
// partition 0's ids are already global.
func globalIDs(perPart [][]int) []int {
	out := perPart[0]
	for phys := 1; phys < len(perPart); phys++ {
		for _, local := range perPart[phys] {
			out = append(out, toGlobal(phys, local))
		}
	}
	return out
}

// Get returns the value at a global row id (valid or not).
func (h *Handle[V]) Get(id int) (V, error) {
	phys, local := split(id)
	if id < 0 || phys >= len(h.hs) {
		var zero V
		return zero, fmt.Errorf("%w: %d", table.ErrRowRange, id)
	}
	return h.hs[phys].Get(local)
}

// Lookup returns the global row ids of current rows whose value equals v.
func (h *Handle[V]) Lookup(v V) []int { return h.LookupAt(table.Latest(), v) }

// LookupAt is Lookup against the rows visible at the view's epoch.
func (h *Handle[V]) LookupAt(view table.View, v V) []int {
	return globalIDs(each(h.hs, func(p *table.Handle[V]) []int { return p.LookupAt(view, v) }))
}

// Range returns the global row ids of current rows with value in [lo, hi].
func (h *Handle[V]) Range(lo, hi V) []int { return h.RangeAt(table.Latest(), lo, hi) }

// RangeAt is Range against the rows visible at the view's epoch.
func (h *Handle[V]) RangeAt(view table.View, lo, hi V) []int {
	return globalIDs(each(h.hs, func(p *table.Handle[V]) []int { return p.RangeAt(view, lo, hi) }))
}

// Scan streams every current row's value through fn, partition by
// partition.  Iteration stops early if fn returns false.  fn runs under the
// partition's read lock and must not call back into the store.
func (h *Handle[V]) Scan(fn func(id int, v V) bool) { h.ScanAt(table.Latest(), fn) }

// ScanAt is Scan against the rows visible at the view's epoch.
func (h *Handle[V]) ScanAt(view table.View, fn func(id int, v V) bool) {
	for phys, p := range h.hs {
		stopped := false
		p.ScanAt(view, func(local int, v V) bool {
			stopped = !fn(toGlobal(phys, local), v)
			return !stopped
		})
		if stopped {
			return
		}
	}
}

// CountEqual returns the number of current rows with value v.
func (h *Handle[V]) CountEqual(v V) int { return h.CountEqualAt(table.Latest(), v) }

// CountEqualAt is CountEqual at the view's epoch: the sum of the
// partitions' fused count kernels, with no id list materialized.
func (h *Handle[V]) CountEqualAt(view table.View, v V) int {
	n := 0
	for _, c := range each(h.hs, func(p *table.Handle[V]) int { return p.CountEqualAt(view, v) }) {
		n += c
	}
	return n
}

// Distinct returns the number of distinct values among all stored row
// versions (a value may appear in several partitions, so the partitions'
// value sets are unioned rather than their sizes summed).
func (h *Handle[V]) Distinct() int {
	seen := make(map[V]struct{})
	for _, p := range h.hs {
		p.AddDistinct(seen)
	}
	return len(seen)
}

// NumericHandle adds cross-partition aggregations for integer columns.
type NumericHandle[V interface{ ~uint32 | ~uint64 }] struct {
	*Handle[V]
	ns []*table.NumericHandle[V]
}

// NumericColumnOf resolves a handle with aggregation support.
func NumericColumnOf[V interface{ ~uint32 | ~uint64 }](st *Table, name string) (*NumericHandle[V], error) {
	nh := &NumericHandle[V]{Handle: &Handle[V]{}}
	for _, s := range st.load().parts {
		n, err := table.NumericColumnOf[V](s, name)
		if err != nil {
			return nil, err
		}
		nh.ns = append(nh.ns, n)
		nh.hs = append(nh.hs, n.Handle)
	}
	return nh, nil
}

// Sum aggregates the column over current rows.
func (h *NumericHandle[V]) Sum() uint64 { return h.SumAt(table.Latest()) }

// SumAt aggregates over the rows visible at the view's epoch; the shared
// epoch makes the combined sum a consistent cross-partition aggregate.
func (h *NumericHandle[V]) SumAt(view table.View) uint64 {
	var sum uint64
	for _, p := range each(h.ns, func(n *table.NumericHandle[V]) uint64 { return n.SumAt(view) }) {
		sum += p
	}
	return sum
}

// Min returns the smallest value over current rows; ok is false when the
// store has no current row.
func (h *NumericHandle[V]) Min() (V, bool) { return h.MinAt(table.Latest()) }

// MinAt is Min at the view's epoch.
func (h *NumericHandle[V]) MinAt(view table.View) (V, bool) {
	return h.best((*table.NumericHandle[V]).MinAt, view, func(cur, cand V) bool { return cand < cur })
}

// Max returns the largest value over current rows.
func (h *NumericHandle[V]) Max() (V, bool) { return h.MaxAt(table.Latest()) }

// MaxAt is Max at the view's epoch.
func (h *NumericHandle[V]) MaxAt(view table.View) (V, bool) {
	return h.best((*table.NumericHandle[V]).MaxAt, view, func(cur, cand V) bool { return cand > cur })
}

// best combines one per-partition extreme (MinAt or MaxAt) across
// partitions.
func (h *NumericHandle[V]) best(at func(*table.NumericHandle[V], table.View) (V, bool), view table.View, better func(cur, cand V) bool) (V, bool) {
	type extreme struct {
		v  V
		ok bool
	}
	var out extreme
	for _, e := range each(h.ns, func(n *table.NumericHandle[V]) extreme {
		v, ok := at(n, view)
		return extreme{v, ok}
	}) {
		if e.ok && (!out.ok || better(out.v, e.v)) {
			out = e
		}
	}
	return out.v, out.ok
}
