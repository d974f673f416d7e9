// Package query evaluates conjunctive multi-column predicates over tables
// using the column-at-a-time strategy natural to decomposed storage (paper
// §3, [10]): one driving predicate produces candidate positions from its
// column alone (dictionary lookup + code scan, or CSB+ probe in the
// delta), and the remaining predicates refine those positions with point
// probes into their own columns.  Because the implicit row offset is valid
// for all attributes of a table, no tuple reconstruction happens until the
// final projection.
package query

import (
	"fmt"
	"math"

	"hyrise/internal/table"
	"hyrise/internal/val"
)

// Op is a predicate operator.
type Op int

const (
	// Eq matches rows whose column value equals Value.
	Eq Op = iota
	// Between matches rows whose column value lies in [Value, Hi].
	Between
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Between:
		return "between"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Filter is one predicate.  Value (and Hi for Between) may be spelled any
// way Insert accepts for the column (table.Convert): for an integer column
// uint32, uint64, uint, or a non-negative int or int64, within the column's
// range; for a string column a string.
type Filter struct {
	Column string
	Op     Op
	Value  any
	Hi     any
}

// Result holds matching row ids and projected values.
type Result struct {
	// Rows are matching row ids in ascending order.
	Rows []int
	// Columns are the projected column names (nil if no projection).
	Columns []string
	// Values[i] holds the projected values of Rows[i].
	Values [][]any
}

// Count returns the number of matching rows.
func (r *Result) Count() int { return len(r.Rows) }

// Run evaluates the conjunction of filters against t's current rows and
// projects the named columns (project == nil skips materialization).  At
// least one filter is required.
func Run(t *table.Table, filters []Filter, project []string) (*Result, error) {
	return RunAt(t, table.Latest(), filters, project)
}

// RunAt is Run against the rows visible at the view's epoch: every
// predicate filters through the frozen view, so the result reflects one
// consistent state even while writers and merges proceed.
//
// A latest view is replaced by a short-lived pinned snapshot for the
// duration of the query: the seed scan, the refinement probes and the
// projection are separate steps, and without the pin a GC merge
// committing in between could reclaim a candidate row mid-query and fail
// it with ErrRowInvalid.
func RunAt(t *table.Table, view table.View, filters []Filter, project []string) (*Result, error) {
	if len(filters) == 0 {
		return nil, fmt.Errorf("query: no filters (use a full-column handle scan instead)")
	}
	if view.IsLatest() {
		view = t.Snapshot()
		defer view.Release()
	}
	for _, p := range project {
		if _, err := colIndex(t, p); err != nil {
			return nil, err
		}
	}

	drive := chooseSeed(t, filters)
	est, indexed, estErr := estimate(t, filters[drive])
	rows, err := seed(t, view, filters[drive])
	if err != nil {
		return nil, err
	}
	if estErr == nil {
		recordSeed(est, indexed, len(rows))
	}

	// Refine with the remaining predicates: one batched column gather per
	// predicate (a single lock acquisition for the whole candidate set)
	// instead of a positional probe — and its lock round trip — per row.
	for i, f := range filters {
		if i == drive || len(rows) == 0 {
			continue
		}
		rows, err = refine(t, rows, f)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Rows: rows, Columns: project}
	if project != nil {
		idx := make([]int, len(project))
		for i, p := range project {
			idx[i], _ = colIndex(t, p)
		}
		for _, r := range rows {
			full, err := t.Row(r)
			if err != nil {
				return nil, err
			}
			vals := make([]any, len(idx))
			for i, ci := range idx {
				vals[i] = full[ci]
			}
			res.Values = append(res.Values, vals)
		}
	}
	return res, nil
}

// chooseSeed picks the driving predicate by estimated cost: the estimated
// candidate-set size (exact posting-list counts on indexed columns, a
// uniform-distribution guess via the dictionary spread otherwise), plus
// the cost of producing it — a scan over the stored rows unless the column
// is indexed.  An indexed equality on a narrow value therefore beats any
// scan, and among unindexed predicates the narrowest dictionary spread
// wins.  Filters that cannot be estimated (unknown column, type mismatch)
// rank last; seed/refine surface the error.
func chooseSeed(t *table.Table, filters []Filter) int {
	if len(filters) == 1 {
		return 0
	}
	// Producing a seed without an index scans main codes word-at-a-time,
	// 64/E_C codes per step at every code width E_C (cheap per row), and
	// probes the delta trees; charge the scan at a fraction of a row each,
	// so a small expected result on an unindexed column still beats a
	// large one on an indexed column.
	scanCost := float64(t.MainRows())/8 + float64(t.DeltaRows())
	best, bestCost := 0, math.Inf(1)
	for i, f := range filters {
		est, indexed, err := estimate(t, f)
		if err != nil {
			continue
		}
		cost := float64(est)
		if !indexed {
			cost += scanCost
		}
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// estimate returns the expected candidate rows for one filter and whether
// an index serves it.
func estimate(t *table.Table, f Filter) (rows int, indexed bool, err error) {
	ci, err := colIndex(t, f.Column)
	if err != nil {
		return 0, false, err
	}
	switch t.Schema()[ci].Type {
	case table.Uint32:
		return estimateTyped[uint32](t, f)
	case table.Uint64:
		return estimateTyped[uint64](t, f)
	default:
		return estimateTyped[string](t, f)
	}
}

func estimateTyped[V val.Value](t *table.Table, f Filter) (int, bool, error) {
	h, err := table.ColumnOf[V](t, f.Column)
	if err != nil {
		return 0, false, err
	}
	switch f.Op {
	case Eq:
		v, err := coerce[V](f.Value, f.Column)
		if err != nil {
			return 0, false, err
		}
		rows, indexed := h.EstimateEqual(v)
		return rows, indexed, nil
	case Between:
		lo, err := coerce[V](f.Value, f.Column)
		if err != nil {
			return 0, false, err
		}
		hi, err := coerce[V](f.Hi, f.Column)
		if err != nil {
			return 0, false, err
		}
		rows, indexed := h.EstimateRange(lo, hi)
		return rows, indexed, nil
	default:
		return 0, false, fmt.Errorf("query: unknown op %v", f.Op)
	}
}

func colIndex(t *table.Table, name string) (int, error) {
	for i, def := range t.Schema() {
		if def.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("query: %w: %q", table.ErrNoColumn, name)
}

// seed produces the driving predicate's candidate rows using the column's
// own access paths (rows visible at the view only).
func seed(t *table.Table, view table.View, f Filter) ([]int, error) {
	ci, err := colIndex(t, f.Column)
	if err != nil {
		return nil, err
	}
	switch t.Schema()[ci].Type {
	case table.Uint32:
		return seedTyped[uint32](t, view, f)
	case table.Uint64:
		return seedTyped[uint64](t, view, f)
	default:
		return seedTyped[string](t, view, f)
	}
}

func seedTyped[V val.Value](t *table.Table, view table.View, f Filter) ([]int, error) {
	h, err := table.ColumnOf[V](t, f.Column)
	if err != nil {
		return nil, err
	}
	switch f.Op {
	case Eq:
		v, err := coerce[V](f.Value, f.Column)
		if err != nil {
			return nil, err
		}
		return h.LookupAt(view, v), nil
	case Between:
		lo, err := coerce[V](f.Value, f.Column)
		if err != nil {
			return nil, err
		}
		hi, err := coerce[V](f.Hi, f.Column)
		if err != nil {
			return nil, err
		}
		return h.RangeAt(view, lo, hi), nil
	default:
		return nil, fmt.Errorf("query: unknown op %v", f.Op)
	}
}

// refine keeps the rows satisfying f, reading the predicate column for
// the whole candidate set with one Handle.Gather call.
func refine(t *table.Table, rows []int, f Filter) ([]int, error) {
	ci, err := colIndex(t, f.Column)
	if err != nil {
		return nil, err
	}
	switch t.Schema()[ci].Type {
	case table.Uint32:
		return refineTyped[uint32](t, rows, f)
	case table.Uint64:
		return refineTyped[uint64](t, rows, f)
	default:
		return refineTyped[string](t, rows, f)
	}
}

func refineTyped[V val.Value](t *table.Table, rows []int, f Filter) ([]int, error) {
	h, err := table.ColumnOf[V](t, f.Column)
	if err != nil {
		return nil, err
	}
	vals, err := h.Gather(rows, make([]V, 0, len(rows)))
	if err != nil {
		return nil, err
	}
	lo, err := coerce[V](f.Value, f.Column)
	if err != nil {
		return nil, err
	}
	hi := lo
	switch f.Op {
	case Eq:
	case Between:
		if hi, err = coerce[V](f.Hi, f.Column); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("query: unknown op %v", f.Op)
	}
	kept := rows[:0]
	for i, r := range rows {
		if vals[i] >= lo && vals[i] <= hi {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// coerce normalizes a filter value for a column of value type V with the
// table's own rule (table.Convert), so a filter accepts exactly the
// spellings Insert accepts for the column, range checks included.
func coerce[V val.Value](raw any, col string) (V, error) {
	var zero V
	typ := table.String
	switch any(zero).(type) {
	case uint32:
		typ = table.Uint32
	case uint64:
		typ = table.Uint64
	}
	v, err := table.Convert(typ, raw)
	if err != nil {
		return zero, fmt.Errorf("query: column %q: %w", col, err)
	}
	return v.(V), nil
}
