package shard

import (
	"errors"

	"hyrise/internal/query"
	"hyrise/internal/table"
)

// Query evaluates a conjunctive multi-column query over current rows; see
// QueryAt.
func Query(st *Table, filters []query.Filter, project []string) (*query.Result, error) {
	return QueryAt(st, table.Latest(), filters, project)
}

// QueryAt evaluates a conjunctive multi-column query against the rows
// visible at the view's epoch.  A store of one partition runs query.RunAt
// on it inline, under one hold of the partition's read lock and with no
// pin; otherwise every partition evaluates in parallel and the
// per-partition results concatenate under global row ids (ascending, with
// projected values kept aligned).  Because the epoch is shared by all
// partitions, the fanned-out evaluation reflects one frozen state of the
// whole store.  The partitions are read under separate lock holds, so a
// latest view is replaced by one short-lived pinned snapshot: every
// partition reads the same epoch, and a row moving between partitions is
// seen exactly once.
func QueryAt(st *Table, view table.View, filters []query.Filter, project []string) (*query.Result, error) {
	// Snapshot the topology once: partition indices below are physical
	// indices into this list, valid for gid encoding even if a reshard
	// publishes a newer map mid-query (row versions visible at the view's
	// epoch never move to partitions created after it).
	parts := st.load().parts
	if len(parts) == 1 {
		return query.RunAt(parts[0], view, filters, project)
	}
	if view.IsLatest() {
		view = st.Snapshot()
		defer view.Release()
	}
	type partResult struct {
		res *query.Result
		err error
	}
	results := each(parts, func(p *table.Table) partResult {
		res, err := query.RunAt(p, view, filters, project)
		return partResult{res, err}
	})
	out := &query.Result{Columns: project}
	var errs []error
	for phys, r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		out.Rows = append(out.Rows, globalize(phys, r.res.Rows)...)
		out.Values = append(out.Values, r.res.Values...)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}
