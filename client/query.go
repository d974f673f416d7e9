package client

import (
	"time"

	"hyrise/internal/wire"
)

// Op is a query predicate operator.
type Op uint8

// Predicate operators.
const (
	// Eq matches rows equal to Filter.Value.
	Eq Op = Op(wire.OpFilterEq)
	// Between matches rows in [Filter.Value, Filter.Hi].
	Between Op = Op(wire.OpFilterBetween)
)

// Filter is one predicate of a conjunctive query.
type Filter struct {
	Column string
	Op     Op
	Value  any
	Hi     any // upper bound for Between
}

// Result holds a query's matching rows and projected values.
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

// Query evaluates the conjunction of filters over current rows and
// projects the named columns (nil projects nothing).
func (c *Client) Query(filters []Filter, project []string) (*Result, error) {
	return c.QueryAt(Latest, filters, project)
}

// QueryAt is Query frozen at the snapshot: the result reflects one
// consistent state of the whole store, across all shards, even while
// writers and merges proceed.
func (c *Client) QueryAt(s Snap, filters []Filter, project []string) (*Result, error) {
	var req wire.Buffer
	req.U8(wire.OpQuery)
	req.U64(uint64(s))
	wfs := make([]wire.Filter, len(filters))
	for i, f := range filters {
		v, err := c.coerce(f.Column, f.Value)
		if err != nil {
			return nil, err
		}
		wfs[i] = wire.Filter{Column: f.Column, Op: uint8(f.Op), Value: v}
		if f.Op == Between {
			if wfs[i].Hi, err = c.coerce(f.Column, f.Hi); err != nil {
				return nil, err
			}
		}
	}
	if err := req.Filters(wfs); err != nil {
		return nil, err
	}
	if err := req.Strings(project); err != nil {
		return nil, err
	}
	r, err := c.doRead(req.Bytes(), s)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if res.Rows, err = r.RowIDs(); err != nil {
		return nil, err
	}
	if res.Columns, err = r.Strings(); err != nil {
		return nil, err
	}
	if len(res.Columns) > 0 {
		res.Values = make([][]any, len(res.Rows))
		for i := range res.Values {
			vals := make([]any, len(res.Columns))
			for j := range vals {
				if vals[j], err = r.Value(); err != nil {
					return nil, err
				}
			}
			res.Values[i] = vals
		}
	}
	return res, nil
}

// PartitionStats summarizes one physical partition (shard) server-side.
type PartitionStats struct {
	Rows      int
	ValidRows int
	MainRows  int
	DeltaRows int
	SizeBytes int
}

// Stats is the server's statistics snapshot: the store's unified stats
// plus server-level counters.
type Stats struct {
	Name      string
	Shards    int
	KeyColumn string
	Rows      int
	ValidRows int
	MainRows  int
	DeltaRows int
	SizeBytes int
	// RetiredRows / ReclaimedBytes are the store's cumulative garbage-
	// collection counters: ids retired by GC merges and the estimated
	// bytes those reclaimed versions occupied.
	RetiredRows    int
	ReclaimedBytes int
	Merging        bool
	// Partitions holds per-shard counts in partition order.
	Partitions []PartitionStats
	// Server-level counters.
	ActiveConns int
	Requests    uint64
	Snapshots   int
}

// Stats fetches storage statistics and server counters.
func (c *Client) Stats() (Stats, error) {
	var req wire.Buffer
	req.U8(wire.OpStats)
	r, err := c.do(req.Bytes())
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if st.Name, err = r.String(); err != nil {
		return st, err
	}
	shards, err := r.U32()
	if err != nil {
		return st, err
	}
	st.Shards = int(shards)
	if st.KeyColumn, err = r.String(); err != nil {
		return st, err
	}
	u64s := []*int{
		&st.Rows, &st.ValidRows, &st.MainRows, &st.DeltaRows, &st.SizeBytes,
		&st.RetiredRows, &st.ReclaimedBytes,
	}
	for _, p := range u64s {
		v, err := r.U64()
		if err != nil {
			return st, err
		}
		*p = int(v)
	}
	merging, err := r.U8()
	if err != nil {
		return st, err
	}
	st.Merging = merging != 0
	nparts, err := r.U32()
	if err != nil {
		return st, err
	}
	st.Partitions = make([]PartitionStats, nparts)
	for i := range st.Partitions {
		fields := []*int{
			&st.Partitions[i].Rows, &st.Partitions[i].ValidRows,
			&st.Partitions[i].MainRows, &st.Partitions[i].DeltaRows,
			&st.Partitions[i].SizeBytes,
		}
		for _, p := range fields {
			v, err := r.U64()
			if err != nil {
				return st, err
			}
			*p = int(v)
		}
	}
	conns, err := r.U32()
	if err != nil {
		return st, err
	}
	st.ActiveConns = int(conns)
	if st.Requests, err = r.U64(); err != nil {
		return st, err
	}
	snaps, err := r.U32()
	if err != nil {
		return st, err
	}
	st.Snapshots = int(snaps)
	return st, nil
}

// MergeOptions configures a remote merge.
type MergeOptions struct {
	// Threads caps the merge's worker budget (0 = all resources).  The
	// server clamps it to its own GOMAXPROCS, and MergeReport.Threads
	// reports the budget it used.
	Threads int
}

// MergeReport summarizes a completed remote merge.
type MergeReport struct {
	RowsMerged int
	// RowsReclaimed counts dead versions the merge garbage-collected (0
	// with nothing reclaimable).
	RowsReclaimed int
	MainRowsAfter int
	Wall          time.Duration
	Threads       int
	Aborted       bool
}

// Merge triggers the online merge process server-side (fanning out
// across shards) and reports the result.  Reads and
// writes proceed while it runs.
func (c *Client) Merge(opts MergeOptions) (MergeReport, error) {
	var req wire.Buffer
	req.U8(wire.OpMerge)
	req.U32(uint32(opts.Threads))
	r, err := c.do(req.Bytes())
	if err != nil {
		return MergeReport{}, err
	}
	var rep MergeReport
	rowsMerged, err := r.U64()
	if err != nil {
		return rep, err
	}
	rep.RowsMerged = int(rowsMerged)
	reclaimed, err := r.U64()
	if err != nil {
		return rep, err
	}
	rep.RowsReclaimed = int(reclaimed)
	mainAfter, err := r.U64()
	if err != nil {
		return rep, err
	}
	rep.MainRowsAfter = int(mainAfter)
	wall, err := r.U64()
	if err != nil {
		return rep, err
	}
	rep.Wall = time.Duration(wall)
	threads, err := r.U32()
	if err != nil {
		return rep, err
	}
	rep.Threads = int(threads)
	aborted, err := r.U8()
	if err != nil {
		return rep, err
	}
	rep.Aborted = aborted != 0
	return rep, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// IndexStat summarizes one group-key index as reported by the server.
// Postings / SizeBytes / Builds are summed across shards and LastBuild is the slowest shard's most recent rebuild.
type IndexStat struct {
	Column    string
	Postings  int
	SizeBytes int
	Builds    uint64
	LastBuild time.Duration
}

// CreateIndex builds a group-key index on column server-side.  The call
// is idempotent; subsequent merges keep the index current.
func (c *Client) CreateIndex(column string) error {
	var req wire.Buffer
	req.U8(wire.OpCreateIndex)
	req.String(column)
	_, err := c.do(req.Bytes())
	return err
}

// IndexStats fetches per-column statistics for every group-key index on
// the server.
func (c *Client) IndexStats() ([]IndexStat, error) {
	var req wire.Buffer
	req.U8(wire.OpIndexStats)
	r, err := c.do(req.Bytes())
	if err != nil {
		return nil, err
	}
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	stats := make([]IndexStat, n)
	for i := range stats {
		if stats[i].Column, err = r.String(); err != nil {
			return nil, err
		}
		postings, err := r.U64()
		if err != nil {
			return nil, err
		}
		stats[i].Postings = int(postings)
		size, err := r.U64()
		if err != nil {
			return nil, err
		}
		stats[i].SizeBytes = int(size)
		if stats[i].Builds, err = r.U64(); err != nil {
			return nil, err
		}
		ns, err := r.U64()
		if err != nil {
			return nil, err
		}
		stats[i].LastBuild = time.Duration(ns)
	}
	return stats, nil
}
