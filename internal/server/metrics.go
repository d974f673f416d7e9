package server

import (
	"strconv"
	"time"

	"hyrise/internal/metrics"
	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/wire"
)

// opMetric is the pre-bound per-opcode instrument set.  serveConn indexes
// it by raw opcode byte — no map lookup, no label rendering, no
// allocation on the request path.
type opMetric struct {
	reqs *metrics.Counter
	errs *metrics.Counter
	lat  *metrics.Histogram
}

// serverMetrics binds every collector the server maintains.  byOp holds a
// zero opMetric for opcodes wire.Opcodes does not assign; its nil
// instruments are no-ops, so a request with an unknown opcode is answered
// without being counted.
type serverMetrics struct {
	reg  *metrics.Registry
	byOp [256]opMetric

	pipelined *metrics.Counter
	slowOps   *metrics.Counter

	mergeTotal     *metrics.Counter
	mergeAborted   *metrics.Counter
	rowsMerged     *metrics.Counter
	rowsReclaimed  *metrics.Counter
	mergeFreezeDur *metrics.Histogram
	mergeRunDur    *metrics.Histogram
	mergeCommitDur *metrics.Histogram
	mergeWallDur   *metrics.Histogram

	// Retention accounting: how many dead versions each GC freeze saw, and
	// how many the per-pin rule kept because a live pin can still see them.
	gcDeadAtFreeze *metrics.Counter
	gcRetained     *metrics.Counter

	// Planner account of served queries, fed by observeQuery.
	querySeeds     *metrics.Counter
	queryEstimated *metrics.Counter
	queryActual    *metrics.Counter
	queryIndexed   *metrics.Counter

	// Online-reshard instruments, fed by observeReshard after each
	// completed OpReshard / Table.Reshard.
	reshardTotal   *metrics.Counter
	reshardRows    *metrics.Counter
	reshardWall    *metrics.Histogram
	reshardCutover *metrics.Histogram
}

// Registry returns the server's metric registry.  Callers may add their
// own collectors; the store's gauges and the per-op series are already
// registered.
func (s *Server) Registry() *metrics.Registry { return s.mx.reg }

// newServerMetrics builds the registry for one server: per-op series for
// every protocol opcode, merge/GC instruments fed by the store's merge
// observer, and scrape-time gauges over the store, the epoch clock, the op
// log, the replica applier and index routing, and the planner counters of
// served queries.
func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{reg: reg}

	for _, op := range wire.Opcodes() {
		name := wire.OpName(op)
		m.byOp[op] = opMetric{
			reqs: reg.Counter("hyrise_server_requests_total",
				"Requests handled, by opcode.", "op", name),
			errs: reg.Counter("hyrise_server_errors_total",
				"Requests answered with an error status, by opcode.", "op", name),
			lat: reg.Histogram("hyrise_server_op_seconds",
				"Request handling latency, by opcode.", "op", name),
		}
	}
	m.pipelined = reg.Counter("hyrise_server_pipelined_requests_total",
		"Requests that arrived while a previous request on the same connection was still queued.")
	m.slowOps = reg.Counter("hyrise_server_slow_ops_total",
		"Requests that exceeded the slow-op threshold.")
	reg.GaugeFunc("hyrise_server_connections",
		"Live client sessions.", func() float64 { return float64(s.ActiveConns()) })
	reg.GaugeFunc("hyrise_server_snapshots",
		"Registered (pinned) snapshot epochs.", func() float64 { return float64(s.SnapshotCount()) })
	reg.GaugeFunc("hyrise_server_uptime_seconds",
		"Seconds since the server was created.", func() float64 { return time.Since(s.started).Seconds() })

	// Epoch clock and pins (the GC retention inputs).
	clock := s.st.Clock()
	reg.GaugeFunc("hyrise_epoch_current",
		"Current epoch of the store clock.", func() float64 { return float64(clock.Now()) })
	reg.GaugeFunc("hyrise_epoch_pins",
		"Live pinned views on the store clock.", func() float64 { return float64(clock.Pins()) })
	reg.GaugeFunc("hyrise_epoch_watermark",
		"Oldest pinned epoch, or the current epoch with nothing pinned.",
		func() float64 { return float64(clock.Watermark()) })

	// Merge / GC instruments, fed by the store's merge observer (below).
	m.mergeTotal = reg.Counter("hyrise_merge_total", "Committed merges across all partitions.")
	m.mergeAborted = reg.Counter("hyrise_merge_aborted_total", "Merges cancelled and rolled back.")
	m.rowsMerged = reg.Counter("hyrise_merge_rows_merged_total",
		"Delta rows folded into main partitions by merges.")
	m.rowsReclaimed = reg.Counter("hyrise_merge_rows_reclaimed_total",
		"Dead row versions dropped by garbage-collecting merges.")
	m.gcDeadAtFreeze = reg.Counter("hyrise_gc_dead_versions_total",
		"Dead row versions observed by GC merge freezes (reclaimed or retained).")
	m.gcRetained = reg.Counter("hyrise_gc_versions_retained_total",
		"Dead versions kept by precise retention because a live pin can still see them.")
	m.mergeFreezeDur = reg.Histogram("hyrise_merge_phase_seconds",
		"Merge phase durations.", "phase", "freeze")
	m.mergeRunDur = reg.Histogram("hyrise_merge_phase_seconds",
		"Merge phase durations.", "phase", "merge")
	m.mergeCommitDur = reg.Histogram("hyrise_merge_phase_seconds",
		"Merge phase durations.", "phase", "commit")
	m.mergeWallDur = reg.Histogram("hyrise_merge_wall_seconds",
		"End-to-end merge duration including lock phases.")
	// Partition-dependent gauges re-resolve the partition list on every
	// scrape: an online reshard appends partitions after construction, and
	// a stale captured slice would silently stop covering them.
	watermark := func() uint64 {
		var w uint64
		for _, p := range s.st.Partitions() {
			w = max(w, p.GCWatermark())
		}
		return w
	}
	reg.GaugeFunc("hyrise_gc_watermark",
		"Reclamation floor: the highest freeze-time epoch a committed GC merge reclaimed below (max over partitions).",
		func() float64 { return float64(watermark()) })
	reg.GaugeFunc("hyrise_gc_watermark_age_epochs",
		"Epochs elapsed since the reclamation floor last advanced (staleness of reclamation).",
		func() float64 {
			w, now := watermark(), clock.Now()
			if w == 0 || now <= w {
				return 0
			}
			return float64(now - w)
		})
	reg.CounterFunc("hyrise_gc_rows_retired_total",
		"Row ids retired by garbage collection.",
		func() float64 { return float64(s.st.SumPartitions((*table.Table).RetiredRows)) })
	reg.CounterFunc("hyrise_gc_reclaimed_bytes_total",
		"Estimated bytes of the row versions garbage collection reclaimed.",
		func() float64 { return float64(s.st.SumPartitions((*table.Table).ReclaimedBytes)) })

	// Storage shape: delta fill drives the merge trigger of §4.
	reg.GaugeFunc("hyrise_store_main_rows", "Main-partition tuple count (summed over shards).",
		func() float64 { return float64(s.st.MainRows()) })
	reg.GaugeFunc("hyrise_store_delta_rows", "Delta tuple count (summed over shards).",
		func() float64 { return float64(s.st.DeltaRows()) })
	reg.GaugeFunc("hyrise_store_delta_fill_fraction",
		"Delta rows over main rows, the merge-trigger metric of §4.",
		func() float64 {
			nm, nd := s.st.MainRows(), s.st.DeltaRows()
			if nm == 0 {
				if nd == 0 {
					return 0
				}
				return 1
			}
			return float64(nd) / float64(nm)
		})
	reg.GaugeFunc("hyrise_store_merging", "1 while any partition runs a merge.",
		func() float64 {
			if s.st.Merging() {
				return 1
			}
			return 0
		})

	// Per-partition shape, labelled by physical partition index (a drained
	// window's indices are not reused) and re-resolved at every scrape like
	// the gauges above.  valid_rows is the
	// one family that passes over a partition's row metadata (O(N) per
	// scrape); size_bytes walks string values, the rest read counters.
	for _, f := range []struct {
		name, help string
		read       func(*table.Table) int
	}{
		{"hyrise_partition_rows", "Stored row versions, by physical partition.", (*table.Table).Rows},
		{"hyrise_partition_valid_rows", "Current (non-invalidated) rows, by physical partition.", (*table.Table).ValidRows},
		{"hyrise_partition_main_rows", "Main-partition tuple count, by physical partition.", (*table.Table).MainRows},
		{"hyrise_partition_delta_rows", "Delta tuple count, by physical partition.", (*table.Table).DeltaRows},
		{"hyrise_partition_size_bytes", "Storage footprint in bytes, by physical partition.", (*table.Table).SizeBytes},
	} {
		reg.VecFunc(f.name, f.help, "partition", func(emit func(string, float64)) {
			for i, p := range s.st.EachPartition() {
				emit(strconv.Itoa(i), float64(f.read(p)))
			}
		})
	}

	// Replication: primary-side op log, follower-side apply lag.
	if l := s.opts.OpLog; l != nil {
		reg.GaugeFunc("hyrise_oplog_first_lsn", "Oldest LSN still retained in the op log.",
			func() float64 { first, _ := l.Bounds(); return float64(first) })
		reg.GaugeFunc("hyrise_oplog_next_lsn", "LSN the next appended op will get.",
			func() float64 { return float64(l.NextLSN()) })
		reg.GaugeFunc("hyrise_oplog_entries", "Ops currently retained in the log.",
			func() float64 { return float64(l.Len()) })
		reg.GaugeFunc("hyrise_oplog_subscribers", "Connected replication followers.",
			func() float64 { return float64(s.Subscribers()) })
	}
	if rep := s.opts.Replica; rep != nil {
		reg.GaugeFunc("hyrise_replica_applied_epoch",
			"Highest epoch at which local reads exactly match the primary.",
			func() float64 { return float64(rep.AppliedEpoch()) })
		reg.GaugeFunc("hyrise_replica_primary_epoch",
			"Primary epoch as of the last heartbeat.",
			func() float64 { return float64(rep.PrimaryEpoch()) })
		reg.GaugeFunc("hyrise_replica_lag_epochs",
			"Primary epoch minus applied epoch.",
			func() float64 {
				p, a := rep.PrimaryEpoch(), rep.AppliedEpoch()
				if p <= a {
					return 0
				}
				return float64(p - a)
			})
		reg.GaugeFunc("hyrise_replica_applied_lsn",
			"Next op-log position this follower will apply.",
			func() float64 { return float64(rep.AppliedLSN()) })
		reg.GaugeFunc("hyrise_replica_stopped",
			"1 once the follower's applier has stopped for good (its epochs no longer advance), else 0.",
			func() float64 {
				if rep.Err() != nil {
					return 1
				}
				return 0
			})
	}

	// Index routing: how reads were actually served.
	reg.CounterFunc("hyrise_index_reads_total",
		"Point/range reads served from a group-key index vs. a column scan.",
		func() float64 {
			return float64(s.st.SumPartitions(func(p *table.Table) int { i, _ := p.RoutingCounts(); return int(i) }))
		}, "route", "indexed")
	reg.CounterFunc("hyrise_index_reads_total",
		"Point/range reads served from a group-key index vs. a column scan.",
		func() float64 {
			return float64(s.st.SumPartitions(func(p *table.Table) int { _, sc := p.RoutingCounts(); return int(sc) }))
		}, "route", "scanned")

	// Group-key indexes, labelled by column: only the columns indexed at
	// scrape time appear.  Summed over shards, except last-build, the
	// slowest shard's most recent rebuild (shard.Table.IndexStats).
	for _, f := range []struct {
		name, help string
		read       func(table.IndexStats) float64
	}{
		{"hyrise_index_postings", "Indexed main positions, by column.",
			func(is table.IndexStats) float64 { return float64(is.Postings) }},
		{"hyrise_index_bytes", "Posting-list memory in bytes, by column.",
			func(is table.IndexStats) float64 { return float64(is.SizeBytes) }},
		{"hyrise_index_builds_total", "Index builds (initial plus one per merge), by column.",
			func(is table.IndexStats) float64 { return float64(is.Builds) }},
		{"hyrise_index_last_build_seconds", "Duration of the most recent index rebuild, by column.",
			func(is table.IndexStats) float64 { return is.LastBuild.Seconds() }},
	} {
		reg.VecFunc(f.name, f.help, "column", func(emit func(string, float64)) {
			for _, is := range s.st.IndexStats() {
				emit(is.Column, f.read(is))
			}
		})
	}

	// Query planner: driving-predicate selectivity estimates vs. actuals,
	// summed over the partitions each served query read (opQuery).
	m.querySeeds = reg.Counter("hyrise_query_seeds_total", "Query seed phases executed.")
	m.queryEstimated = reg.Counter("hyrise_query_estimated_rows_total",
		"Sum of driving-predicate candidate-set estimates.")
	m.queryActual = reg.Counter("hyrise_query_actual_rows_total",
		"Sum of seed candidate sets actually produced.")
	m.queryIndexed = reg.Counter("hyrise_query_indexed_seeds_total",
		"Seed phases served by a group-key index.")

	// Online resharding: migration and cutover instruments, plus live
	// shard-topology gauges.
	m.reshardTotal = reg.Counter("hyrise_reshard_total", "Completed online reshards.")
	m.reshardRows = reg.Counter("hyrise_reshard_rows_migrated_total",
		"Row versions relocated into new shard windows by reshard migration passes.")
	m.reshardWall = reg.Histogram("hyrise_reshard_wall_seconds",
		"End-to-end online reshard duration (prepare, migrate, cutover).")
	m.reshardCutover = reg.Histogram("hyrise_reshard_cutover_seconds",
		"Duration of the atomic cutover step publishing the new routing.")
	sh := s.st
	reg.GaugeFunc("hyrise_store_shards", "Active shard count (current routing window).",
		func() float64 { return float64(sh.NumShards()) })
	reg.GaugeFunc("hyrise_store_partitions",
		"Partition count: the active shards plus the sealed partitions a reshard left still draining.",
		func() float64 { return float64(len(sh.Partitions())) })
	reg.GaugeFunc("hyrise_shard_map_version", "Version of the published shard map.",
		func() float64 { return float64(sh.MapVersion()) })
	reg.CounterFunc("hyrise_read_partitions_total",
		"Partitions read by the store's read fan-out (a key equality reads one per shard window).",
		func() float64 { return float64(sh.PartitionsRead()) })
	reg.GaugeFunc("hyrise_store_resharding", "1 while a reshard migration is in flight.",
		func() float64 {
			if sh.Resharding() {
				return 1
			}
			return 0
		})

	sh.OnMerge(m.observeMerge)
	return m
}

// observeMerge is the store's merge observer (shard.Table.OnMerge): it
// runs after a partition's merge released the table locks, once per Merge
// call, in commit order per partition.
func (m *serverMetrics) observeMerge(rep table.Report) {
	if rep.Aborted {
		m.mergeAborted.Inc()
	} else {
		m.mergeTotal.Inc()
		m.rowsMerged.Add(uint64(rep.RowsMerged))
		m.rowsReclaimed.Add(uint64(rep.RowsReclaimed))
		m.gcDeadAtFreeze.Add(uint64(rep.DeadAtFreeze))
		if kept := rep.DeadAtFreeze - rep.RowsReclaimed; kept > 0 {
			m.gcRetained.Add(uint64(kept))
		}
	}
	m.mergeFreezeDur.ObserveDuration(rep.Freeze)
	m.mergeRunDur.ObserveDuration(rep.MergeRun)
	m.mergeCommitDur.ObserveDuration(rep.Commit)
	m.mergeWallDur.ObserveDuration(rep.Wall)
}

// observeQuery adds one served query's planner account.
func (m *serverMetrics) observeQuery(sel *table.Selection) {
	m.querySeeds.Add(uint64(sel.Seeds))
	m.queryEstimated.Add(uint64(sel.Estimate))
	m.queryActual.Add(uint64(sel.Seeded))
	m.queryIndexed.Add(uint64(sel.Indexed))
}

// observeReshard feeds the reshard instruments after each completed
// OpReshard.
func (m *serverMetrics) observeReshard(rep shard.ReshardReport) {
	m.reshardTotal.Inc()
	m.reshardRows.Add(uint64(rep.RowsMigrated))
	m.reshardWall.ObserveDuration(rep.Wall)
	m.reshardCutover.ObserveDuration(rep.CutoverWall)
}
