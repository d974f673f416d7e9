package table

import (
	"fmt"

	"hyrise/internal/kernel"
	"hyrise/internal/val"
)

// The typed reads a Plan does not express: one value by row id, a scan
// streamed through a callback and the stored value set.  Each takes the
// column by index with its Go type V; ColumnIndex checks the pair.

// ColumnIndex returns the index of the named column, which must hold V
// (uint32, uint64 or string, as declared).
func ColumnIndex[V val.Value](t *Table, name string) (int, error) {
	i, err := t.schema.Index(name)
	if err != nil {
		return 0, err
	}
	if _, ok := t.cols[i].(*typedColumn[V]); !ok {
		var v V
		return 0, fmt.Errorf("table: column %q is %v, not %T", name, t.schema[i].Type, v)
	}
	return i, nil
}

// Get returns column col's value at the given row id (valid or not).  A
// row reclaimed by garbage collection fails with ErrRowInvalid.
func Get[V val.Value](t *Table, col, row int) (V, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, err := t.slotFor(row)
	if err != nil {
		var zero V
		return zero, err
	}
	v, ok := t.cols[col].(*typedColumn[V]).getTyped(slot)
	if !ok {
		return v, fmt.Errorf("%w: %d", ErrRowRange, row)
	}
	return v, nil
}

// ScanAt streams column col's value of every row visible at the view's
// epoch through fn — the table scan of Figure 1 — and reports whether it
// ran to the end: it stops early when fn returns false.  A view the GC has
// passed fails with ErrReclaimed before fn runs.  The main runs
// block-at-a-time: a visibility selection vector from its bitmap
// (epoch.Rows.MainAt), then a gather of the selected codes
// (internal/kernel), decoded through the dictionary; delta values are read
// directly.
//
// fn runs with the table's read lock held and must not call back into the
// table: a concurrent writer queued between the two acquisitions would
// deadlock the re-entrant read.  Collect row ids in fn and read other
// columns after the scan returns — row versions are immutable.
func ScanAt[V val.Value](t *Table, view View, col int, fn func(row int, v V) bool) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkView(view); err != nil {
		return false, err
	}
	e := view.resolve()
	c := t.cols[col].(*typedColumn[V])
	nm := c.main.Len()
	dict := c.main.Dict()
	k, hide := t.epochs.MainAt(e)
	sel := kernel.SelectMain(k, hide, nil)
	done := true
	kernel.Gather(c.main.Codes(), sel, func(pos int32, code uint64) bool {
		done = fn(t.ids[pos], dict.At(int(code)))
		return done
	})
	if !done {
		return false, nil
	}
	base := nm
	for _, d := range c.deltas {
		for i, v := range d.Values() {
			if row := base + i; t.epochs.VisibleAt(row, e) && !fn(t.ids[row], v) {
				return false, nil
			}
		}
		base += d.Len()
	}
	return true, nil
}

// AddDistinct adds every distinct value column col stores, in any version
// (main dictionary and delta values), to seen; a store of several
// partitions unions them through one set.
func AddDistinct[V val.Value](t *Table, col int, seen map[V]struct{}) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := t.cols[col].(*typedColumn[V])
	for _, v := range c.main.Dict().Values() {
		seen[v] = struct{}{}
	}
	for _, d := range c.deltas {
		for _, v := range d.Values() {
			seen[v] = struct{}{}
		}
	}
}
