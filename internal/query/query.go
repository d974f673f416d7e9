// Package query is the public face of conjunctive multi-column queries:
// the Filter, Op and Result types and the planner statistics.  Run and
// RunAt map a query onto column positions and run it as one table.Read,
// which evaluates it column at a time on slot positions, the strategy
// natural to decomposed storage (paper §3, [10]): one driving predicate
// produces candidate positions from its column alone (dictionary lookup +
// code scan, a posting list, or a CSB+ probe in the delta), and the
// remaining predicates refine those positions on their own columns' codes.
// Because the implicit row offset is valid for all attributes of a table,
// nothing is decoded and no row id is resolved until the final
// projection, and the whole query holds the table's read lock once.
package query

import (
	"fmt"

	"hyrise/internal/table"
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

// RunAt is Run against the rows visible at the view's epoch.  It maps the
// filters and projection onto column positions and runs them as one
// table.Read: seed, refinement and projection work on slot positions
// under one hold of the table's read lock, so the result reflects one
// state even while writers and merges proceed, and a latest view needs no
// pinned snapshot — no GC merge can commit between the steps.  It records
// the driving predicate's estimate against the seed's actual size in the
// planner statistics.
func RunAt(t *table.Table, view table.View, filters []Filter, project []string) (*Result, error) {
	if len(filters) == 0 {
		return nil, fmt.Errorf("query: no filters (use a full-column handle scan instead)")
	}
	preds := make([]table.Pred, len(filters))
	for i, f := range filters {
		ci, err := colIndex(t, f.Column)
		if err != nil {
			return nil, err
		}
		preds[i] = table.Pred{Col: ci, Lo: f.Value, Hi: f.Hi}
		switch f.Op {
		case Eq:
		case Between:
			preds[i].Range = true
		default:
			return nil, fmt.Errorf("query: unknown op %v", f.Op)
		}
	}
	var cols []int
	if project != nil {
		cols = make([]int, len(project))
		for i, p := range project {
			ci, err := colIndex(t, p)
			if err != nil {
				return nil, err
			}
			cols[i] = ci
		}
	}
	sel, err := t.Read(view, table.Plan{Preds: preds, Project: cols})
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	recordSeed(sel.Estimate, sel.Indexed, sel.Seeded)
	return &Result{Rows: sel.Rows, Columns: project, Values: sel.Values}, nil
}

func colIndex(t *table.Table, name string) (int, error) {
	i, err := t.Schema().Index(name)
	if err != nil {
		return 0, fmt.Errorf("query: %w", err)
	}
	return i, nil
}
