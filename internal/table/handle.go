package table

import (
	"fmt"

	"hyrise/internal/kernel"
	"hyrise/internal/val"
)

// Handle is a typed view of one column, providing the read operations of
// the paper's workload taxonomy (§2): key lookups, table scans, range
// selects, counts and aggregates.  The type parameter enforces the
// column's declared type.  Lookup, Range, CountEqual, Sum, Min and Max are
// one-predicate or no-predicate Plans run by Table.Read, under one hold of
// the table's read lock; Scan streams the column through a callback.  Every
// read spans the main partition and then every delta in slot order (the
// frozen and the second delta while a merge runs).  The methods without an
// At suffix filter to current (latest-version) rows; each has an At variant
// taking a View that filters to the rows visible at the view's epoch
// instead, so several reads can run against one frozen state while writers
// proceed.
type Handle[V val.Value] struct {
	t   *Table
	idx int
}

// ColumnOf resolves a typed handle for the named column.  The type
// parameter must match the column's declared type (uint32, uint64 or
// string).
func ColumnOf[V val.Value](t *Table, name string) (*Handle[V], error) {
	i, err := t.schema.Index(name)
	if err != nil {
		return nil, err
	}
	if _, ok := t.cols[i].(*typedColumn[V]); !ok {
		var v V
		return nil, fmt.Errorf("table: column %q is %v, not %T",
			name, t.schema[i].Type, v)
	}
	return &Handle[V]{t: t, idx: i}, nil
}

func (h *Handle[V]) col() *typedColumn[V] {
	return h.t.cols[h.idx].(*typedColumn[V])
}

// Get returns the value of the column at the given row id (valid or not).
// A row reclaimed by garbage collection fails with ErrRowInvalid.
func (h *Handle[V]) Get(row int) (V, error) {
	h.t.mu.RLock()
	defer h.t.mu.RUnlock()
	slot, err := h.t.slotFor(row)
	if err != nil {
		var zero V
		return zero, err
	}
	v, ok := h.col().getTyped(slot)
	if !ok {
		return v, fmt.Errorf("%w: %d", ErrRowRange, row)
	}
	return v, nil
}

// Lookup returns the row ids of current rows whose value equals v — the
// key lookup of Figure 1.
func (h *Handle[V]) Lookup(v V) []int { return h.LookupAt(Latest(), v) }

// LookupAt is Lookup against the rows visible at the view's epoch.
func (h *Handle[V]) LookupAt(view View, v V) []int {
	return h.read(view, Plan{Preds: []Pred{{Col: h.idx, Lo: v}}}).Rows
}

// Range returns the row ids of current rows whose value lies in [lo, hi] —
// the range select of Figure 1.
func (h *Handle[V]) Range(lo, hi V) []int { return h.RangeAt(Latest(), lo, hi) }

// RangeAt is Range against the rows visible at the view's epoch.
func (h *Handle[V]) RangeAt(view View, lo, hi V) []int {
	return h.read(view, Plan{Preds: []Pred{{Col: h.idx, Range: true, Lo: lo, Hi: hi}}}).Rows
}

// read runs a plan that cannot fail to bind: the handle's column exists
// and holds V.
func (h *Handle[V]) read(view View, p Plan) *Selection {
	s, err := h.t.Read(view, p)
	if err != nil {
		panic(err)
	}
	return s
}

// Scan streams every current row's value through fn — the table scan of
// Figure 1.  Main-partition values are materialized through the
// dictionary; delta values are read directly.  Iteration stops early if fn
// returns false.
//
// fn runs with the table's read lock held and must not call back into the
// table (Get, Row, other handles): a concurrent writer queued between the
// two acquisitions would deadlock the re-entrant read.  Collect row ids in
// fn and read other columns after the scan returns — row versions are
// immutable, so the values cannot change in between.
func (h *Handle[V]) Scan(fn func(row int, v V) bool) { h.ScanAt(Latest(), fn) }

// ScanAt is Scan against the rows visible at the view's epoch.  The main
// partition runs block-at-a-time: a visibility selection vector over the
// raw epoch columns — every position when every main row is visible — then
// a gather of the selected codes (internal/kernel) instead of a per-row
// decode-and-check loop.
func (h *Handle[V]) ScanAt(view View, fn func(row int, v V) bool) {
	h.t.mu.RLock()
	defer h.t.mu.RUnlock()
	e := view.resolve()
	c := h.col()
	nm := c.main.Len()
	begin, end := h.t.mainEpochs(e)
	dict := c.main.Dict()
	sel := kernel.SelectVisible(begin, end, e, 0, nm, nil)
	stopped := false
	kernel.Gather(c.main.Codes(), sel, func(pos int32, code uint64) bool {
		if !fn(h.t.ids[pos], dict.At(int(code))) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	base := nm
	for _, d := range c.deltas {
		for i, v := range d.Values() {
			if row := base + i; h.t.epochs.VisibleAt(row, e) && !fn(h.t.ids[row], v) {
				return
			}
		}
		base += d.Len()
	}
}

// CountEqual returns the number of current rows with value v.
func (h *Handle[V]) CountEqual(v V) int { return h.CountEqualAt(Latest(), v) }

// CountEqualAt is CountEqual at the view's epoch.
func (h *Handle[V]) CountEqualAt(view View, v V) int {
	return h.read(view, Plan{Preds: []Pred{{Col: h.idx, Lo: v}}, Reduce: Count}).Count
}

// Indexed reports whether the column's main partition currently carries a
// group-key index (attached by Table.CreateIndex and rebuilt by merges).
func (h *Handle[V]) Indexed() bool {
	h.t.mu.RLock()
	defer h.t.mu.RUnlock()
	return h.col().main.Index() != nil
}

// Distinct returns the number of distinct values among all stored row
// versions (main dictionary merged with delta uniques; an upper bound on
// the post-merge dictionary size).  It spans the full version history, so
// it is view-independent.
func (h *Handle[V]) Distinct() int {
	seen := make(map[V]struct{})
	h.AddDistinct(seen)
	return len(seen)
}

// AddDistinct adds every distinct stored value to seen; a store of several
// partitions unions them through one set (a value may live in several).
func (h *Handle[V]) AddDistinct(seen map[V]struct{}) {
	h.t.mu.RLock()
	defer h.t.mu.RUnlock()
	c := h.col()
	for _, v := range c.main.Dict().Values() {
		seen[v] = struct{}{}
	}
	for _, d := range c.deltas {
		for _, v := range d.Values() {
			seen[v] = struct{}{}
		}
	}
}

// NumericHandle adds aggregations that require integer values.
type NumericHandle[V interface{ ~uint32 | ~uint64 }] struct {
	*Handle[V]
}

// NumericColumnOf resolves a handle with aggregation support.
func NumericColumnOf[V interface{ ~uint32 | ~uint64 }](t *Table, name string) (*NumericHandle[V], error) {
	h, err := ColumnOf[V](t, name)
	if err != nil {
		return nil, err
	}
	return &NumericHandle[V]{Handle: h}, nil
}

// Sum aggregates the column over current rows — the analytic aggregation
// query of §2 ("large sequential scans spanning few columns").
func (h *NumericHandle[V]) Sum() uint64 { return h.SumAt(Latest()) }

// SumAt aggregates the column over the rows visible at the view's epoch.
func (h *NumericHandle[V]) SumAt(view View) uint64 {
	return h.read(view, Plan{Reduce: Sum, Col: h.idx}).Sum
}

// Min returns the smallest value over current rows; ok is false for an
// effectively empty column.
func (h *NumericHandle[V]) Min() (V, bool) { return h.MinAt(Latest()) }

// MinAt is Min at the view's epoch.
func (h *NumericHandle[V]) MinAt(view View) (V, bool) {
	s := h.read(view, Plan{Reduce: MinMax, Col: h.idx})
	return V(s.Min), s.Found
}

// Max returns the largest value over current rows.
func (h *NumericHandle[V]) Max() (V, bool) { return h.MaxAt(Latest()) }

// MaxAt is Max at the view's epoch.
func (h *NumericHandle[V]) MaxAt(view View) (V, bool) {
	s := h.read(view, Plan{Reduce: MinMax, Col: h.idx})
	return V(s.Max), s.Found
}
