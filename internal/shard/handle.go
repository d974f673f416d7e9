package shard

import (
	"hyrise/internal/table"
	"hyrise/internal/val"
)

// Handle is a typed column of a store, returning global row ids; the type
// parameter enforces the column's declared type.  It holds only the store
// and the column's index: every read goes through the store's current
// shard map, so a handle stays valid across a Reshard.  Lookup, Range,
// CountEqual, Sum, Min and Max are one-predicate or no-predicate Plans run
// by the store's one read fan-out (Read), with the answers combined by the
// plan's reduction: Lookup and CountEqual on the key column read the one
// partition the value hashes to in each shard window, every other
// read every partition.  Scan visits partitions sequentially
// (partition 0 first), in per-partition insertion order.  Every read is at
// one epoch on every partition it reads — over several, a latest read pins
// one snapshot for the call, so a row moving between partitions is seen
// exactly once.  A read of one partition — any read of a store of one
// partition, a key read of a store with one window — reads exactly what,
// and as fast as, that partition does.
// The At variants read through a View captured by Table.Snapshot, whose
// single epoch is valid across every partition.  They return no error, so
// a read through a view the GC has passed — in process, only a view read
// after its Release, or a table.ViewAt view — panics with
// table.ErrReclaimed; Read returns it instead.
type Handle[V val.Value] struct {
	st  *Table
	col int
}

// ColumnOf resolves a typed handle for the named column.
func ColumnOf[V val.Value](st *Table, name string) (*Handle[V], error) {
	col, err := table.ColumnIndex[V](st.load().writeWindow().parts[0], name) // every partition has the store's schema
	if err != nil {
		return nil, err
	}
	return &Handle[V]{st: st, col: col}, nil
}

// read runs a plan that cannot fail to bind: the handle's column exists
// and holds V.  It panics with table.ErrReclaimed on a view the GC has
// passed.
func (h *Handle[V]) read(view table.View, p table.Plan) *table.Selection {
	s, err := Read(h.st, view, p)
	if err != nil {
		panic(err)
	}
	return s
}

// Get returns the value at a global row id (valid or not).
func (h *Handle[V]) Get(id int) (V, error) {
	p, local, err := locate(h.st.load(), id)
	if err != nil {
		var zero V
		return zero, err
	}
	return table.Get[V](p, h.col, local)
}

// Lookup returns the global row ids of current rows whose value equals v.
func (h *Handle[V]) Lookup(v V) []int { return h.LookupAt(table.Latest(), v) }

// LookupAt is Lookup against the rows visible at the view's epoch.
func (h *Handle[V]) LookupAt(view table.View, v V) []int {
	return h.read(view, table.Plan{Preds: []table.Pred{{Col: h.col, Lo: v}}}).Rows
}

// Range returns the global row ids of current rows with value in [lo, hi].
func (h *Handle[V]) Range(lo, hi V) []int { return h.RangeAt(table.Latest(), lo, hi) }

// RangeAt is Range against the rows visible at the view's epoch.
func (h *Handle[V]) RangeAt(view table.View, lo, hi V) []int {
	return h.read(view, table.Plan{Preds: []table.Pred{{Col: h.col, Range: true, Lo: lo, Hi: hi}}}).Rows
}

// Scan streams every current row's value through fn, partition by
// partition.  Iteration stops early if fn returns false.  fn runs under the
// partition's read lock and must not call back into the store.
func (h *Handle[V]) Scan(fn func(id int, v V) bool) { h.ScanAt(table.Latest(), fn) }

// ScanAt is Scan against the rows visible at the view's epoch.  A latest
// view is pinned for the scan, whose partitions are those of the shard
// map after the pin, as in fanOut — even on one partition, because fn may
// have run before a reshard starting mid-scan is noticed, so the scan
// cannot re-read as fanOut does.  Like read it panics with
// table.ErrReclaimed on a view the GC has passed.
func (h *Handle[V]) ScanAt(view table.View, fn func(id int, v V) bool) {
	if view.IsLatest() {
		view = h.st.Snapshot()
		defer view.Release()
	}
	for phys, p := range h.st.EachPartition() {
		more, err := table.ScanAt(p, view, h.col, func(local int, v V) bool { return fn(toGlobal(phys, local), v) })
		if err != nil {
			panic(err)
		}
		if !more {
			return
		}
	}
}

// CountEqual returns the number of current rows with value v.
func (h *Handle[V]) CountEqual(v V) int { return h.CountEqualAt(table.Latest(), v) }

// CountEqualAt is CountEqual at the view's epoch: the sum of the
// partitions' fused count kernels, with no id list materialized.
func (h *Handle[V]) CountEqualAt(view table.View, v V) int {
	return h.read(view, table.Plan{Preds: []table.Pred{{Col: h.col, Lo: v}}, Reduce: table.Count}).Count
}

// Distinct returns the number of distinct values among all stored row
// versions (a value may appear in several partitions, so the partitions'
// value sets are unioned rather than their sizes summed).
func (h *Handle[V]) Distinct() int {
	seen := make(map[V]struct{})
	for _, p := range h.st.EachPartition() {
		table.AddDistinct(p, h.col, seen)
	}
	return len(seen)
}

// NumericHandle adds cross-partition aggregations for integer columns.
type NumericHandle[V interface{ ~uint32 | ~uint64 }] struct {
	*Handle[V]
}

// NumericColumnOf resolves a handle with aggregation support.
func NumericColumnOf[V interface{ ~uint32 | ~uint64 }](st *Table, name string) (*NumericHandle[V], error) {
	h, err := ColumnOf[V](st, name)
	if err != nil {
		return nil, err
	}
	return &NumericHandle[V]{h}, nil
}

// Sum aggregates the column over current rows.
func (h *NumericHandle[V]) Sum() uint64 { return h.SumAt(table.Latest()) }

// SumAt aggregates over the rows visible at the view's epoch; the shared
// epoch makes the combined sum a consistent cross-partition aggregate.
func (h *NumericHandle[V]) SumAt(view table.View) uint64 {
	return h.read(view, table.Plan{Reduce: table.Sum, Col: h.col}).Sum
}

// Min returns the smallest value over current rows; ok is false when the
// store has no current row.
func (h *NumericHandle[V]) Min() (V, bool) { return h.MinAt(table.Latest()) }

// MinAt is Min at the view's epoch.
func (h *NumericHandle[V]) MinAt(view table.View) (V, bool) {
	s := h.read(view, table.Plan{Reduce: table.MinMax, Col: h.col})
	return V(s.Min), s.Found
}

// Max returns the largest value over current rows.
func (h *NumericHandle[V]) Max() (V, bool) { return h.MaxAt(table.Latest()) }

// MaxAt is Max at the view's epoch.
func (h *NumericHandle[V]) MaxAt(view table.View) (V, bool) {
	s := h.read(view, table.Plan{Reduce: table.MinMax, Col: h.col})
	return V(s.Max), s.Found
}
