package client

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
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
	if nc := len(res.Columns); nc > 0 {
		// One backing array for every row's values; each row is capped at
		// its own end, so appending to one cannot overwrite the next.
		flat := make([]any, len(res.Rows)*nc)
		for i := range flat {
			if flat[i], err = r.Value(); err != nil {
				return nil, err
			}
		}
		res.Values = make([][]any, len(res.Rows))
		for i := range res.Values {
			res.Values[i] = flat[i*nc : (i+1)*nc : (i+1)*nc]
		}
	}
	return res, nil
}

// PartitionStats summarizes one partition server-side.
type PartitionStats struct {
	Rows      int
	ValidRows int
	MainRows  int
	DeltaRows int
	SizeBytes int
}

// Stats is the server's statistics: the store's unified stats plus
// server-level counters.
type Stats struct {
	Name string
	// Shards is the active shard count at the time of the call
	// (hyrise_store_shards); it changes at an online Reshard.
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
	// Partitions holds per-partition counts in physical order: the active
	// shards and the sealed partitions a reshard left still draining.
	Partitions []PartitionStats
	// Server-level counters.
	ActiveConns int
	Requests    uint64
	Snapshots   int
}

// Stats reads storage statistics and server counters from one Metrics
// snapshot.  Name and KeyColumn come from the schema cached at Dial;
// every other field is a registry series: hyrise_store_*,
// hyrise_partition_*{partition}, hyrise_gc_* and hyrise_server_*, with
// Rows, ValidRows and SizeBytes summed over partitions.  Each series is
// read on its own, so the aggregate is not a cross-series snapshot (the
// partitions were never read at one instant either).  Requests sums
// hyrise_server_requests_total over opcodes: it counts requests of known
// opcodes, not subscribe streams or frames with an unknown opcode.  A
// series the server does not report is an error.
func (c *Client) Stats() (Stats, error) {
	samples, err := c.Metrics()
	if err != nil {
		return Stats{}, err
	}
	m := seriesSet{samples: samples}
	st := Stats{
		Name: c.name, KeyColumn: c.keyColumn,
		Shards:         int(m.get("hyrise_store_shards")),
		MainRows:       int(m.get("hyrise_store_main_rows")),
		DeltaRows:      int(m.get("hyrise_store_delta_rows")),
		RetiredRows:    int(m.get("hyrise_gc_rows_retired_total")),
		ReclaimedBytes: int(m.get("hyrise_gc_reclaimed_bytes_total")),
		Merging:        m.get("hyrise_store_merging") != 0,
		ActiveConns:    int(m.get("hyrise_server_connections")),
		Snapshots:      int(m.get("hyrise_server_snapshots")),
	}
	for _, s := range samples {
		if strings.HasPrefix(s.Name, "hyrise_server_requests_total{") {
			st.Requests += uint64(s.Value)
		}
	}
	// A partition exists iff a hyrise_partition_* series names its physical
	// index; a drained shard window's indices are gone, not renumbered.
	var phys []int
	for _, s := range samples {
		if _, l, ok := strings.Cut(s.Name, `{partition="`); ok && strings.HasPrefix(s.Name, "hyrise_partition_") {
			if i, err := strconv.Atoi(strings.TrimSuffix(l, `"}`)); err == nil {
				phys = append(phys, i)
			}
		}
	}
	if len(phys) == 0 {
		m.missing = "hyrise_partition_rows"
	}
	slices.Sort(phys)
	for _, i := range slices.Compact(phys) {
		part := func(family string) int {
			return int(m.get(fmt.Sprintf(`hyrise_partition_%s{partition="%d"}`, family, i)))
		}
		p := PartitionStats{Rows: part("rows"), ValidRows: part("valid_rows"),
			MainRows: part("main_rows"), DeltaRows: part("delta_rows"), SizeBytes: part("size_bytes")}
		st.Partitions = append(st.Partitions, p)
		st.Rows += p.Rows
		st.ValidRows += p.ValidRows
		st.SizeBytes += p.SizeBytes
	}
	if m.missing != "" {
		return Stats{}, fmt.Errorf("client: server %s reports no %s", c.addr, m.missing)
	}
	return st, nil
}

// seriesSet reads series by exact name (MetricValue) from one Metrics
// snapshot and remembers the first required one that is absent.
type seriesSet struct {
	samples []Metric
	missing string
}

func (m *seriesSet) has(name string) bool {
	_, ok := MetricValue(m.samples, name)
	return ok
}

// get returns the named series, recording it as missing if it is absent.
func (m *seriesSet) get(name string) float64 {
	v, ok := MetricValue(m.samples, name)
	if !ok && m.missing == "" {
		m.missing = name
	}
	return v
}

// MergeOptions configures a remote merge.
type MergeOptions struct {
	// Threads is each partition merge's budget of pieces (0 = all the
	// server's cores).  The server clamps it to its own GOMAXPROCS, and
	// MergeReport.Threads reports the per-merge budget it used.
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

// IndexStats reads per-column statistics for every group-key index on
// the server, in schema column order, from one Metrics snapshot: the
// hyrise_index_{postings,bytes,builds_total,last_build_seconds}{column}
// series, which list only the columns indexed when the server read them.
// As with Stats, each series is read on its own, and a series missing for
// an indexed column is an error.
func (c *Client) IndexStats() ([]IndexStat, error) {
	samples, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	m := seriesSet{samples: samples}
	var stats []IndexStat
	for _, col := range c.schema {
		label := fmt.Sprintf("{column=%q}", col.Name)
		if !m.has("hyrise_index_postings" + label) {
			continue
		}
		stats = append(stats, IndexStat{
			Column:    col.Name,
			Postings:  int(m.get("hyrise_index_postings" + label)),
			SizeBytes: int(m.get("hyrise_index_bytes" + label)),
			Builds:    uint64(m.get("hyrise_index_builds_total" + label)),
			LastBuild: time.Duration(math.Round(m.get("hyrise_index_last_build_seconds"+label) * 1e9)),
		})
	}
	if m.missing != "" {
		return nil, fmt.Errorf("client: server %s reports no %s", c.addr, m.missing)
	}
	return stats, nil
}
