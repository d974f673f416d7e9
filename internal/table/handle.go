package table

import (
	"fmt"

	"hyrise/internal/kernel"
	"hyrise/internal/val"
)

// Handle is a typed view of one column, providing the read operations of
// the paper's workload taxonomy (§2): key lookups, table scans and range
// selects.  All operations span the main partition and then every delta in
// slot order (the frozen and the second delta while a merge runs).  The
// methods without an At suffix filter to current (latest-version) rows;
// each has an At variant taking a View that filters to the rows visible at
// the view's epoch instead, so a multi-operation read plan can run against
// one frozen state while writers proceed.  A conjunctive query over several
// columns is not such a plan: Table.Select runs it on slot positions under
// one lock hold.
//
// Lookups use the main dictionary's binary search plus the delta's CSB+
// tree; scans stream the compressed codes and materialize delta values —
// the "forced materialization" read penalty of uncompressed deltas the
// paper describes in §4.
type Handle[V val.Value] struct {
	t   *Table
	idx int
}

// ColumnOf resolves a typed handle for the named column.  The type
// parameter must match the column's declared type (uint32, uint64 or
// string).
func ColumnOf[V val.Value](t *Table, name string) (*Handle[V], error) {
	i, err := t.columnIndex(name)
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

// LookupAt is Lookup against the rows visible at the view's epoch.  The
// main partition is searched through its dictionary (one binary search,
// then a word-at-a-time code scan, split across cores on a large main, or
// a posting-list copy when the column is indexed); the deltas through
// their CSB+ trees (no scan at all).  The main's matches skip the
// visibility filter when every main row is visible.
func (h *Handle[V]) LookupAt(view View, v V) []int {
	h.t.mu.RLock()
	defer h.t.mu.RUnlock()
	return h.t.idsOf(h.col().match(h.t, view.resolve(), false, v, v))
}

// Range returns the row ids of current rows whose value lies in [lo, hi] —
// the range select of Figure 1.
func (h *Handle[V]) Range(lo, hi V) []int { return h.RangeAt(Latest(), lo, hi) }

// RangeAt is Range against the rows visible at the view's epoch.  An
// unindexed main is matched by the code-range scan kernel, split across
// cores on a large main, an indexed one by its posting lists; the matches
// skip the visibility filter when every main row is visible.  The deltas
// are probed through their CSB+ trees when the column is indexed and
// scanned otherwise.
func (h *Handle[V]) RangeAt(view View, lo, hi V) []int {
	h.t.mu.RLock()
	defer h.t.mu.RUnlock()
	return h.t.idsOf(h.col().match(h.t, view.resolve(), true, lo, hi))
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

// CountEqualAt is CountEqual at the view's epoch.  The main partition is
// counted with the fused match+visibility kernel, split across cores on a
// large main — no selection vector or row-id mapping is materialized — or,
// when every main row is visible, by matches alone: one population count
// per window, or the posting list's length.
func (h *Handle[V]) CountEqualAt(view View, v V) int {
	h.t.mu.RLock()
	defer h.t.mu.RUnlock()
	e := view.resolve()
	c := h.col()
	begin, end := h.t.mainEpochs(e)
	n := 0
	if code, ok := c.main.LookupCode(v); ok {
		if p := c.main.Index(); p != nil {
			// Count visible entries of the posting list directly; Bucket
			// aliases the index, so the read-only counting kernel is used
			// rather than the in-place filter.
			h.t.routeIndexed.Add(1)
			n = kernel.CountSelVisible(p.Bucket(code), begin, end, e)
		} else {
			h.t.routeScanned.Add(1)
			n = kernel.CountEqual(c.main.Codes(), code, begin, end, e)
		}
	}
	base := c.main.Len()
	for _, d := range c.deltas {
		tids, _ := d.Find(v)
		for _, tid := range tids {
			if h.t.epochs.VisibleAt(base+int(tid), e) {
				n++
			}
		}
		base += d.Len()
	}
	return n
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
// The main partition is summed by one fused kernel over its codes
// (kernel.SumVisible), split across cores on a large main: each block is
// decoded, tested for visibility and looked up in the sorted dictionary in
// the same loop — no selection vector, no row materialized.  When every
// main row is visible the kernel skips the test and reads no epochs.
func (h *NumericHandle[V]) SumAt(view View) uint64 {
	h.t.mu.RLock()
	defer h.t.mu.RUnlock()
	e := view.resolve()
	c := h.col()
	mb, me := h.t.mainEpochs(e)
	sum := kernel.SumVisible(c.main.Codes(), c.main.Dict().Values(), mb, me, e)
	begin, end := h.t.epochs.Raw()
	base := c.main.Len()
	for _, d := range c.deltas {
		sum += sumDelta(d.Values(), begin, end, e, base)
		base += d.Len()
	}
	return sum
}

// sumDelta sums the delta values, stored from row base on, visible at e.
func sumDelta[V interface{ ~uint32 | ~uint64 }](vals []V, begin, end []uint64, e uint64, base int) uint64 {
	var sum uint64
	for i, v := range vals {
		if begin[base+i] <= e && end[base+i]-1 >= e {
			sum += uint64(v)
		}
	}
	return sum
}

// Min returns the smallest value over current rows; ok is false for an
// effectively empty column.
func (h *NumericHandle[V]) Min() (V, bool) { return h.MinAt(Latest()) }

// MinAt is Min at the view's epoch.
func (h *NumericHandle[V]) MinAt(view View) (V, bool) {
	mn, _, ok := h.minMaxAt(view)
	return mn, ok
}

// Max returns the largest value over current rows.
func (h *NumericHandle[V]) Max() (V, bool) { return h.MaxAt(Latest()) }

// MaxAt is Max at the view's epoch.
func (h *NumericHandle[V]) MaxAt(view View) (V, bool) {
	_, mx, ok := h.minMaxAt(view)
	return mx, ok
}

// minMaxAt computes both extremes in one pass.  The main partition's
// min/max code IS its min/max value (order-preserving dictionary), so one
// fused decode-and-visibility kernel reduces over codes
// (kernel.MinMaxVisible, split across cores on a large main) and pays
// exactly two dictionary accesses; when every main row is visible it
// reads no epochs.
func (h *NumericHandle[V]) minMaxAt(view View) (mn, mx V, ok bool) {
	h.t.mu.RLock()
	defer h.t.mu.RUnlock()
	e := view.resolve()
	c := h.col()
	mb, me := h.t.mainEpochs(e)
	if cMin, cMax, found := kernel.MinMaxVisible(c.main.Codes(), mb, me, e); found {
		d := c.main.Dict()
		mn, mx, ok = d.At(int(cMin)), d.At(int(cMax)), true
	}
	begin, end := h.t.epochs.Raw()
	base := c.main.Len()
	for _, d := range c.deltas {
		mn, mx, ok = minMaxDelta(d.Values(), begin, end, e, base, mn, mx, ok)
		base += d.Len()
	}
	return mn, mx, ok
}

// minMaxDelta folds the delta values, stored from row base on, visible at
// e into the running extremes (mn, mx, ok).
func minMaxDelta[V interface{ ~uint32 | ~uint64 }](vals []V, begin, end []uint64, e uint64, base int, mn, mx V, ok bool) (V, V, bool) {
	for i, v := range vals {
		if begin[base+i] > e || end[base+i]-1 < e {
			continue
		}
		if !ok {
			mn, mx, ok = v, v, true
			continue
		}
		mn, mx = min(mn, v), max(mx, v)
	}
	return mn, mx, ok
}
