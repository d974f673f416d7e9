package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hyrise/internal/par"
	"hyrise/internal/table"
)

// InsertRows appends a batch of rows, routing each to the partition owning
// its key value, and returns their global row ids in input order.  Rows
// bound for the same partition are inserted under one lock acquisition.
// Every row is validated (arity, value types, key hashability) before any
// row lands, so a bad value rejects the whole batch with no partition
// touched.  A batch that races a reshard's seal is re-routed through the
// fresh shard map.
func (st *Table) InsertRows(rows [][]any) ([]int, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	m := st.load()
	w := m.writeWindow()
	if len(w.parts) == 1 {
		// One target: the partition validates the whole batch itself.
		locals, err := w.parts[0].InsertRows(rows)
		if errors.Is(err, table.ErrSealed) {
			return st.InsertRows(rows) // a reshard republished routing
		}
		return globalize(w.base, locals), err
	}
	// Validate the whole batch and compute routing up front: partitions
	// re-validate on insert, but by then earlier partitions would already
	// have accepted their slice of the batch.
	check := w.parts[0]
	perShard := make(map[int][]int) // input indices per physical partition
	for i, values := range rows {
		if err := check.CheckRow(values); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		s, err := st.routeFor(m, values[st.keyIdx])
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		perShard[s] = append(perShard[s], i)
	}
	ids := make([]int, len(rows))
	for s, idxs := range perShard {
		batch := make([][]any, len(idxs))
		for j, i := range idxs {
			batch[j] = rows[i]
		}
		locals, err := m.part(s).InsertRows(batch)
		if errors.Is(err, table.ErrSealed) {
			// A reshard retired this partition between routing and insert;
			// fall back to per-row inserts, which re-route per row.
			for _, i := range idxs {
				gid, err := st.Insert(rows[i])
				if err != nil {
					// Unreachable in practice: the row was validated above
					// and Insert retries seals internally.
					return nil, err
				}
				ids[i] = gid
			}
			continue
		}
		if err != nil {
			// Unreachable in practice: the batch was validated above.
			return nil, err
		}
		for j, local := range locals {
			ids[idxs[j]] = toGlobal(s, local)
		}
	}
	return ids, nil
}

// RequestMerge runs the online merge on every partition — sealed ones
// included, since merging is how their dead history is garbage-collected —
// and is the store's one on-demand merge entry.  Afterwards a sealed window
// whose partitions the merges left without a row version leaves the store
// (see prune).  A store of one partition returns that partition's report
// verbatim — per-column detail, phase timings and GC fields included.
// Otherwise the partitions merge concurrently through table.MergeEach,
// each with opts.Threads as its own budget — the same per-merge budget a
// scheduler's Config.Threads is; the process's one pool, not a division of
// the budget, keeps the merges within the cores — and the reports condense
// into one: the counts (DeadAtFreeze included) sum over the partitions
// that committed, LivePins, GCWatermark and Threads are their maxima — one
// clock serves every partition, so pins are store-wide — and Columns is
// nil: per-partition, per-column detail is each partition's
// LastMergeReport.
//
// Merges are online and atomic per partition only (queries may observe
// some partitions merged and others not, which changes no visible row
// content), so Report.Aborted keeps its "nothing changed" meaning: it is
// true only when NO partition committed (a merge of an empty delta runs and
// commits like any other).  On failure (including ctx
// cancellation) the joined per-partition errors are returned after all
// merges settle — match with errors.Is, not == — while committed
// partitions stay committed with their rows counted; an aborted
// partition's rows stay in its delta and are not counted.
func (st *Table) RequestMerge(ctx context.Context, opts table.MergeOptions) (table.Report, error) {
	parts := st.Partitions()
	if len(parts) == 1 {
		return parts[0].Merge(ctx, opts)
	}
	defer st.prune()
	start := time.Now()
	reps, errs := table.MergeEach(ctx, parts, opts)
	out := table.Report{Aborted: true}
	for i, rep := range reps {
		if errs[i] != nil {
			continue
		}
		out.Aborted = false
		out.RowsMerged += rep.RowsMerged
		out.RowsReclaimed += rep.RowsReclaimed
		out.DeadAtFreeze += rep.DeadAtFreeze
		out.LivePins = max(out.LivePins, rep.LivePins)
		out.GCWatermark = max(out.GCWatermark, rep.GCWatermark)
		out.Threads = max(out.Threads, rep.Threads)
	}
	out.MainRowsAfter = st.MainRows()
	out.Wall = time.Since(start)
	return out, errors.Join(errs...)
}

// Partitions returns the store's partitions in physical order: every
// partition of its windows, the active one and sealed ones still draining.
// A drained window's partitions left the store, so a partition's position
// here is its physical index only until the first window leaves
// (EachPartition pairs each with its index).
func (st *Table) Partitions() []*table.Table {
	var out []*table.Table
	for _, w := range st.load().windows {
		out = append(out, w.parts...)
	}
	return out
}

// prune republishes the shard map without the sealed windows garbage
// collection has drained (shardMap.pruned).  Every partition merge ends
// with it (see merged).  It never waits: while a reshard or another prune
// holds reshardMu it does nothing, and a later merge or the reshard's
// cutover prunes instead.
func (st *Table) prune() {
	if len(st.load().windows) == 1 || !st.reshardMu.TryLock() {
		return
	}
	defer st.reshardMu.Unlock()
	m := st.load()
	if p := m.pruned(); p != m {
		st.smap.Store(p)
	}
}

// CreateIndex builds a group-key index over the named column on every
// partition, in parallel (each partition's build excludes that
// partition's merges but never blocks reads), and every later merge keeps
// it rebuilt.  The column is recorded so partitions created by a later
// Reshard are indexed the same way.  The first error wins; already-indexed
// shards are skipped, so a partially failed call can simply be retried and
// a repeated one is a no-op.  Indexes are in-memory only: re-create them
// after Load.
func (st *Table) CreateIndex(column string) error {
	// Record first, under the wiring lock, so a concurrent reshard either
	// sees the recorded column or gets indexed by the loop below.
	st.mu.Lock()
	known := false
	for _, c := range st.indexCols {
		if c == column {
			known = true
		}
	}
	if !known {
		st.indexCols = append(st.indexCols, column)
	}
	parts := st.Partitions()
	st.mu.Unlock()

	errs := make([]error, len(parts))
	par.Do(len(parts), func(i int) { errs[i] = parts[i].CreateIndex(column) })
	err := errors.Join(errs...)
	if err != nil {
		// Don't re-apply a bad column to future reshard partitions.
		st.mu.Lock()
		for i, c := range st.indexCols {
			if c == column {
				st.indexCols = append(st.indexCols[:i], st.indexCols[i+1:]...)
				break
			}
		}
		st.mu.Unlock()
	}
	return err
}

// IndexStats aggregates per-column index statistics across partitions: one
// entry per indexed column with postings, bytes and builds summed, and
// LastBuild the per-shard maximum (the slowest shard bounds a merge's
// index overhead).
func (st *Table) IndexStats() []table.IndexStats {
	byCol := make(map[string]*table.IndexStats)
	var order []string
	for _, s := range st.EachPartition() {
		for _, is := range s.IndexStats() {
			agg := byCol[is.Column]
			if agg == nil {
				cp := is
				byCol[is.Column] = &cp
				order = append(order, is.Column)
				continue
			}
			agg.Postings += is.Postings
			agg.SizeBytes += is.SizeBytes
			agg.Builds += is.Builds
			if is.LastBuild > agg.LastBuild {
				agg.LastBuild = is.LastBuild
			}
		}
	}
	out := make([]table.IndexStats, 0, len(order))
	for _, c := range order {
		out = append(out, *byCol[c])
	}
	return out
}

// StoreStats is a store's statistics snapshot: aggregate counts plus
// per-partition detail.
type StoreStats struct {
	Name string
	// Shards is the ACTIVE shard count — the partitions key hashing spreads
	// writes over; len(Partitions) additionally counts the partitions of
	// sealed windows still draining after a reshard.
	Shards int
	// KeyColumn is the hash-partitioning column.
	KeyColumn string
	Rows      int
	ValidRows int
	MainRows  int
	DeltaRows int
	SizeBytes int
	// RetiredRows counts row ids retired by garbage-collecting merges
	// across all partitions (cumulative); ReclaimedBytes estimates the
	// memory those reclaimed versions occupied.
	RetiredRows    int
	ReclaimedBytes int
	// Partitions holds each partition's full statistics in physical order
	// (Table.Partitions).
	Partitions []table.Stats
}

// StoreStats returns per-partition and aggregated storage statistics.  Each
// partition's snapshot is individually consistent; the aggregate is not a
// cross-partition snapshot.
func (st *Table) StoreStats() StoreStats {
	out := StoreStats{Name: st.name, Shards: st.NumShards(), KeyColumn: st.KeyColumn()}
	for _, s := range st.Partitions() {
		ts := s.Stats()
		out.Partitions = append(out.Partitions, ts)
		out.Rows += ts.Rows
		out.ValidRows += ts.ValidRows
		out.MainRows += ts.MainRows
		out.DeltaRows += ts.DeltaRows
		out.SizeBytes += ts.SizeBytes
		out.RetiredRows += ts.RetiredRows
		out.ReclaimedBytes += ts.ReclaimedBytes
	}
	return out
}
