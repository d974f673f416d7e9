package shard

import (
	"hyrise/internal/par"
	"hyrise/internal/query"
	"hyrise/internal/table"
)

// each runs fn on every partition through par.Do and returns the results
// in physical order: partition 0 on the caller's goroutine, every other one
// on a pool worker when one is free and on the caller otherwise.
func each[R any](parts []*table.Table, fn func(*table.Table) R) []R {
	out := make([]R, len(parts))
	par.Do(len(parts), func(i int) { out[i] = fn(parts[i]) })
	return out
}

// fanOut is the store's one read fan-out: it runs read on every partition
// of the current shard map at one epoch and combines the answers.  A lone
// partition runs inline with the caller's view under its one lock hold.
// Over several, read in parallel under separate lock holds, a latest view
// becomes one snapshot pinned for the call, and the partitions are those
// of the map after the pin, so they hold every version it sees: a row
// moving between partitions is seen exactly once, and no GC merge
// reclaims a version the read can see.  Global ids concatenate in
// physical order, so they ascend, with values aligned and limit (0: none)
// applied to the whole; counts and sums add up; extremes combine.  The
// planner fields (Estimate, Indexed, Seeded) are not.
func fanOut(st *Table, view table.View, limit int, read func(*table.Table, table.View) (*table.Selection, error)) (*table.Selection, error) {
	parts := st.load().parts
	if len(parts) == 1 {
		s, err := read(parts[0], view) // partition 0's ids are global
		// A reshard publishes its partitions before it moves a row, so an
		// unchanged count means the latest read missed no move.
		if !view.IsLatest() || st.NumParts() == 1 {
			return s, err
		}
	}
	if view.IsLatest() {
		view = st.Snapshot()
		defer view.Release()
		parts = st.load().parts
	}
	type answer struct {
		s   *table.Selection
		err error
	}
	as := each(parts, func(t *table.Table) answer {
		s, err := read(t, view)
		return answer{s, err}
	})
	out := &table.Selection{}
	for phys, a := range as {
		if a.err != nil {
			return nil, a.err
		}
		s := a.s
		out.Rows = append(out.Rows, globalize(phys, s.Rows)...)
		out.Values = append(out.Values, s.Values...)
		out.Count += s.Count
		out.Sum += s.Sum
		switch {
		case !s.Found:
		case !out.Found:
			out.Min, out.Max, out.Found = s.Min, s.Max, true
		default:
			out.Min, out.Max = min(out.Min, s.Min), max(out.Max, s.Max)
		}
	}
	if limit > 0 && len(out.Rows) > limit {
		out.Rows = out.Rows[:limit]
		if out.Values != nil {
			out.Values = out.Values[:limit]
		}
	}
	return out, nil
}

// Read runs the plan on every partition at one epoch with Table.Read and
// combines the answers by its reduction (fanOut).
func Read(st *Table, view table.View, p table.Plan) (*table.Selection, error) {
	return fanOut(st, view, p.Limit, func(t *table.Table, v table.View) (*table.Selection, error) {
		return t.Read(v, p)
	})
}

// Query evaluates a conjunctive multi-column query over current rows; see
// QueryAt.
func Query(st *Table, filters []query.Filter, project []string) (*query.Result, error) {
	return QueryAt(st, table.Latest(), filters, project)
}

// QueryAt evaluates a conjunctive multi-column query against the rows
// visible at the view's epoch: query.RunAt, which keeps the planner
// statistics, on every partition through the store's one read fan-out
// (fanOut), so the result reflects one state of the whole store.
func QueryAt(st *Table, view table.View, filters []query.Filter, project []string) (*query.Result, error) {
	s, err := fanOut(st, view, 0, func(t *table.Table, v table.View) (*table.Selection, error) {
		res, err := query.RunAt(t, v, filters, project)
		if err != nil {
			return nil, err
		}
		return &table.Selection{Rows: res.Rows, Values: res.Values}, nil
	})
	if err != nil {
		return nil, err
	}
	return &query.Result{Rows: s.Rows, Columns: project, Values: s.Values}, nil
}
