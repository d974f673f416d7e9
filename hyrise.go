// Package hyrise is a Go reproduction of the delta-merge architecture of
// "Fast Updates on Read-Optimized Databases Using Multi-Core CPUs"
// (Krueger et al., VLDB 2011): an in-memory, dictionary-compressed column
// store that sustains transactional update rates by accumulating writes in
// per-column uncompressed delta partitions and periodically folding them
// into the compressed main partitions with a linear-time, multi-core merge.
//
// # Quick start
//
// There is one storage organisation — per column a compressed main plus a
// write-optimised delta, merged online — and a table is one or more
// partitions of it, hash-partitioned by a key column:
//
//	s, _ := hyrise.NewTable("sales", schema)                       // one partition
//	s, _ = hyrise.NewShardedTable("sales", schema, "order_id", 8) // or eight
//
//	s.Insert([]any{uint64(1), uint32(3), "widget"})
//	h, _ := hyrise.ColumnOf[uint64](s, "order_id")
//	rows := h.Lookup(1)
//	res, _ := hyrise.Query(s, []hyrise.Filter{
//		{Column: "product", Op: hyrise.FilterEq, Value: "widget"},
//	}, []string{"order_id"})
//	s.RequestMerge(context.Background(), hyrise.MergeOptions{})
//
//	ms := hyrise.NewScheduler(s, hyrise.SchedulerConfig{Fraction: 0.05})
//	ms.Start() // merges each partition when its delta outgrows the trigger,
//	           // including partitions a later s.Reshard creates
//
//	view := s.Snapshot()      // freeze a consistent read view (one atomic op)
//	old := h.LookupAt(view, 1) // reads under the view never change
//	view.Release()             // unpin so merges can garbage-collect again
//
//	hyrise.Save(s, w)         // snapshot
//	s2, _ := hyrise.Load(r)   // same rows, ids, history and shard layout
//
// Tables are insert-only (paper §3): updates append new row versions and
// invalidate the old ones, deletes only invalidate, and the version
// history remains queryable until garbage collection reclaims it (see
// below).  The merge runs online — writes accumulate in a second delta
// while it runs, and the merged table is committed atomically under a
// brief lock.
//
// # Visibility and snapshots
//
// Visibility is multi-versioned: every row records the epoch it was
// inserted (begin) and the epoch it was invalidated (end; 0 while it is
// the current version), stamped from the store's epoch clock.  A row is
// visible at epoch E iff begin <= E and (end == 0 or end > E).  The clock
// advances only when Table.Snapshot captures it — one atomic fetch-add, no
// locks, no coordination with writers — so all mutations between two
// captures share an epoch and the write path pays a single atomic load.
// A delta row stores both epochs; the read-only main stores each row's
// begin and, as the paper's validity bit vector, one dead bit per row plus
// the end epochs of its dead rows only.
//
// The epoch lifecycle per mutation: an insert stamps begin with the
// current epoch; a delete stamps end; an update stamps the old version's
// end and the new version's begin with the SAME epoch, so every snapshot
// sees exactly one of the two versions.  A key-changing update that moves
// a row between shards performs the invalidate and the re-insert under
// both shard locks with one stamp — atomic to snapshots too.  A row
// inserted and deleted between two captures is visible to no snapshot.
//
// What a snapshot sees: reads through a ReadView (LookupAt, RangeAt,
// ScanAt, SumAt/MinAt/MaxAt, CountEqualAt, QueryAt, ValidRowsAt,
// VisibleAt) return exactly the rows visible at the captured epoch, no
// matter how many inserts, updates, deletes, cross-shard moves or merges
// commit afterwards.  The epoch is shared by every shard, so one capture
// freezes a cross-shard-consistent state — the fan-out reads agree with
// each other even mid-reorganization.  Reads
// without a view ("latest") see current versions only and are equivalent
// to a view at epoch infinity.
//
// Interaction with the merge: merges move rows between partitions but
// never renumber them, change their values or touch their epochs, so
// in-flight views read identically before, during and after any merge
// (including aborted ones).  Snapshot persistence records the epoch
// columns, the clock, the stable row-id map and the GC state, so version
// history, row ages and retired ids survive a Save/Load round trip.  Save
// needs no quiescent store and never fails on a concurrent merge or GC;
// what it does not promise is one instant for all partitions (see Save).
// There is one snapshot format; Load fails anything else as malformed.
//
// Views are plain values, cheap to copy.  One caution: Scan/ScanAt callbacks run under the table's read lock and
// must not call back into the table — collect row ids and read other
// columns after the scan (row versions are immutable).
//
// # Garbage collection
//
// Pure insert-only storage grows without bound under a steady update
// workload, so every merge doubles as the garbage collector.  When a merge
// freezes its delta it snapshots the exact set of live pinned epochs and
// keeps a dead version only if some pin can still see it — begin <= pin
// and (end == 0 || end > pin) for at least one pinned epoch; every other
// invalidated version at or below the newest safe epoch is dropped
// instead of copied into the new main.  This per-pin interval rule is
// strictly more precise than the classic oldest-live-reader watermark
// (Larson et al., VLDB 2011): one long-lived pin retains only the
// versions visible at its own epoch, not every version invalidated since
// it was taken, so history churned between an old pin and the present is
// reclaimed rather than accumulating behind the oldest reader.
// MergeReport.DeadAtFreeze counts the dead versions each merge saw and
// RowsReclaimed how many of them it dropped; the difference is what live
// pins retained.  Dictionary values referenced only by reclaimed versions are dropped
// with them.
//
// The pin lifecycle: Table.Snapshot captures and pins in one step; call
// ReadView.Release when done reading, or the versions visible at the
// view's epoch stay retained forever.  Copies of a view share one pin.
// The zero ReadView and reads without a view never pin.
//
// The guarantee: a read at epoch E sees exactly the versions with
// begin <= E < end, or it fails.  A pinned view never fails.  A view
// without a live pin — released, or a view at an explicit epoch — reads
// exactly while E is at or above the last reclaiming merge's watermark
// and fails with ErrReclaimed below it, never answering with rows missing.
// Query and the *At reads that return an error return it; ValidRowsAt and
// the column handles' At reads, which return none, panic with it.
//
// Row ids are stable across reclamation: they are resolved through an
// id-to-slot indirection, merges compact the physical slots underneath,
// and a reclaimed id is retired — never reused — with every operation on
// it failing with ErrRowInvalid exactly like a merely invalidated row.
// StoreStats reports the cumulative RetiredRows and ReclaimedBytes, and
// MergeReport.RowsReclaimed counts what each merge dropped.
//
// Over the network a snapshot is its epoch, and the same rule holds: a
// client.Snap is the epoch Client.Snapshot pinned server-side until
// Release, and a read at an epoch the server cannot serve exactly fails
// with client.ErrBadSnapshot.  The registry of pinned epochs is bounded
// (ServerOptions.MaxSnapshots, hyrised -max-snapshots) so leaked
// snapshots cannot pin history forever — past the cap, Snapshot fails with
// client.ErrTooManySnapshots.  hyrised releases every pinned epoch on
// shutdown before its final compacting merge.
//
// # Shards
//
// NewTable creates a table of one shard: every operation runs inline on
// its single partition, row ids are that partition's dense,
// insertion-ordered ids, and RequestMerge is one atomic online merge whose
// report carries the per-column detail.
//
// More shards multiply both halves of the paper's central trade: inserts
// route by key hash and contend only on their shard, and RequestMerge fans
// the multi-core merge out across shards in parallel, each with the whole
// per-merge thread budget: one process-wide pool of GOMAXPROCS−1 workers
// runs the pieces of every merge, scan and shard fan-out, so the shards'
// merges share the cores without dividing the budget.  Every shard's
// merge is individually online and
// atomic; cross-shard consistency comes from snapshots (see above).  Row
// ids are stable and carry the owning partition in their high bits, above
// the partition's own insertion-ordered id.  Updates that change the key
// column may relocate a row to another shard.
//
// # Online resharding
//
// Table.Reshard(ctx, n) changes the active shard count of any table while
// readers and writers keep running.  Fresh partitions are created and
// wired (op log, secondary indexes, merge observer), a
// reshard-begin op is logged, and writes atomically switch to routing into
// the new window while the old partitions are sealed against inserts.  A
// running Scheduler picks the new partitions up at its next poll.  A
// migration pass then drains every live row from the sealed partitions
// into its new home with MoveRow — invalidate at the old slot, re-insert
// at the new, same global row id — so concurrent reads resolve each row
// exactly once throughout.  Finally an epoch-stamped cutover op publishes
// the new map version; ReshardReport carries the counts and timings.
//
// To a writer, a migrated row looks exactly like one relocated by a
// concurrent key-changing update: its old global row id fails with
// ErrRowInvalid and a key lookup finds the row under its new id.  Pinned
// snapshots taken before the reshard keep reading bit-identical results
// (the pre-move versions stay in the sealed partitions for as long as a
// pin can see them), and both marker ops flow through the op log so
// replication followers replay the same migration and converge on the
// same topology.  A sealed partition stays in the store only while it
// holds versions: once merges — RequestMerge's or a Scheduler's — have
// reclaimed them all, its window leaves, and Partitions, Stats, the
// scheduler, the hyrise_partition_* series and snapshots no longer see it
// (hyrise_store_shards and hyrise_store_partitions differ only while a
// sealed window drains).  Persisted snapshots record the shard windows and
// map version, and a canceled migration cuts over anyway — rows not yet
// moved stay readable in their sealed partitions and migrate on the next
// reshard.
//
// Over the network the same operation is client.Reshard, and a running
// hyrised daemon is resharded online with
//
//	$ hyrised -addr HOST:PORT -reshard N
//
// # Vectorized execution
//
// Read-side operators never walk a compressed column one row at a time.
// Scans, lookups, counts and aggregates (Lookup/LookupAt, Range/RangeAt,
// Scan/ScanAt, CountEqual/CountEqualAt, SumAt/MinAt/MaxAt, and the Query
// probe path) run on internal/kernel batch kernels that evaluate
// predicates directly on the bit-packed words of the main partition: at
// every packed width the match kernels compare a 64-bit window of whole
// codes per step with SWAR arithmetic (21 lanes at 3 bits, 8 at 8 bits) —
// never through a per-row Get.
//
// Operators compose through selection vectors: a predicate kernel emits
// the ascending positions of matching rows, and the visibility kernel
// filters such a vector in place: on the main, the rows that began by the
// read epoch (a prefix, found by binary search) less those set in its dead
// bitmap; on the deltas, their begin/end epochs.  Sum, Min and Max decode
// the codes block-at-a-time (512 values) into a reused scratch buffer and
// test one dead bit per row in the same loop, 64 rows untested where a
// bitmap word is 0, building no selection vector.  The
// delta partitions stay row-wise (they are uncompressed and small by
// construction; the merge scheduler bounds their fraction), so a scan is
// a kernel pass over main plus a short scalar tail over the deltas.
//
// The same batch orientation drives the write side: with more merge
// threads than columns (MergeOptions{Threads: N}) a garbage-collecting
// merge range-partitions each column's rewrite across N workers emitting
// disjoint word-aligned output slices, so one oversized shard no longer
// serializes compaction.  internal/kernel's BenchmarkScanKernel measures
// the scan side against the scalar loop, and cmd/mergebench -exp table2
// the merge's thread scaling.
//
// # Secondary indexes
//
// The scan kernels make full-column predicates fast, but a selective
// point or range read still pays a pass over every main row.
// CreateIndex builds a merge-maintained group-key index on one column:
// for the dictionary-encoded main partition, a posting list of row
// positions per value code (two counting-sort passes over the packed
// codes — no per-row comparisons), while the delta partitions are
// already covered by their per-column CSB+ trees.  With an index
// attached, Lookup/LookupAt, Range/RangeAt, CountEqual/CountEqualAt and
// the Query planner's driving predicate read the posting buckets
// instead of scanning, then apply the same epoch-visibility kernel —
// indexed and scanned reads return byte-identical results at every
// epoch, which the differential suites assert under concurrent writes,
// merges and GC.
//
// The index is maintained by the merge itself: each merge rebuilds the
// posting lists over the new main as a side product of the code rewrite
// and publishes them atomically with it, so readers always observe a
// main/index pair that agrees and an aborted merge leaves the old pair
// untouched.  Two caveats: posting lists store positions in the current
// main (not row ids, and never filtered in place — visibility filtering
// works on copies), and indexes are in-memory only — they are absent
// from the persist format and the replication stream, so a reloaded or
// re-bootstrapped store starts unindexed (hyrised -index re-creates
// them at startup).  IndexStats reports per-column posting counts,
// sizes and rebuild times; CreateIndex fans out over the shards and the
// stats aggregate across them.
//
// # Network serving
//
// A table can serve real concurrent client traffic as a standalone
// database server.  The cmd/hyrised daemon owns a store
// (fresh from -schema, or loaded from its -snapshot file), serves every
// Table operation over a length-prefixed binary protocol on TCP,
// keeps delta fractions bounded with a background merge scheduler while
// traffic flows, and on SIGTERM drains in-flight requests, compacts and
// saves the snapshot it will reload at the next start:
//
//	$ hyrised -addr :4860 -shards 4 \
//	    -schema 'order_id:uint64,qty:uint32,product:string' \
//	    -snapshot sales.hyr
//
// The Go client (package hyrise/client, re-exported here as Dial) pools
// connections, pipelines batches and rehydrates the library's typed
// errors.  A snapshot is its epoch, pinned server-side, so pinned reads
// stay consistent across pooled connections — and across clients:
//
//	c, _ := hyrise.Dial("localhost:4860")
//	id, _ := c.Insert([]any{uint64(1), uint32(3), "widget"})
//	snap, _ := c.Snapshot()             // frozen, cross-shard consistent
//	rows, _ := c.LookupAt(snap, "order_id", 1)
//	sum, _ := c.SumAt(snap, "qty")      // agrees with rows, despite writers
//	c.Release(snap)
//
// To embed the server instead of running the daemon, hand a Table and a
// listener to Serve; the returned DBServer drains gracefully via
// Shutdown.  The wire protocol is documented in internal/server; it has
// one generation, and a client and a server built from different ones
// refuse each other at Dial rather than negotiate.
//
// # Replication
//
// A primary scales its read side out to followers by streaming its
// operation log.  EnableReplication attaches an epoch-stamped op log to
// the store's write path — every insert, update, delete and cross-shard
// move is recorded with the epoch it committed under — and a server
// given that log (ServerOptions.OpLog, or hyrised -replicate) lets
// followers subscribe over the ordinary listener.  Follow bootstraps a
// follower: it streams the primary's snapshot into a fresh local store,
// applies the op tail, and keeps applying — and reconnecting — until
// closed.  Because replayed ops carry the primary's epochs and row ids,
// a follower's store is bit-identical to the primary's at every applied
// epoch: reads at epoch E answer exactly what the primary answers at E.
//
//	olog, _ := hyrise.EnableReplication(st, 0)        // primary side
//	hyrise.Serve(l, st, hyrise.ServerOptions{OpLog: olog})
//
//	rep, _ := hyrise.Follow(primaryAddr, hyrise.ReplicaOptions{})
//	hyrise.Serve(fl, hyrise.FollowStore(rep),         // follower side
//	    hyrise.ServerOptions{Replica: rep})
//
// A follower server is read-only (writes fail with client.ErrReadOnly)
// and advances Replica.AppliedEpoch only on the primary's heartbeats, so
// the epoch it reports is always exact.  The pooled client routes reads
// transparently: client.Options.Followers lists follower addresses, a
// snapshot read goes to a follower as is — it answers at the epoch
// exactly, with no pin of its own, or refuses it when it has not applied
// the epoch or has garbage-collected past it — latest reads go to any
// follower lagging at most client.Options.MaxStaleness epochs whose
// applier has not stopped (hyrise_replica_stopped), and everything else —
// including any follower refusal or failure, which benches the follower
// for a second — falls back to the primary, which holds the snapshot's
// pin.  For monitoring, Client.Role reports the role the hello exchange announced, and Client.Metrics the replication lag
// (hyrise_replica_lag_epochs) and op-log bounds (hyrise_oplog_*).  The
// same topology runs as daemons with hyrised -replicate and hyrised
// -follow; ExampleFollow shows the whole wiring in one process.
//
// # Observability
//
// A running server measures itself: every layer feeds a dependency-free
// metric registry (internal/metrics) of atomic counters, gauges and
// power-of-two-bucket latency histograms.  Series are named
// hyrise_<subsystem>_<name>, with Prometheus conventions for units and
// suffixes (durations in seconds, cumulative counters ending in _total,
// histograms contributing _bucket/_sum/_count).  The instrumented
// subsystems:
//
//	hyrise_server_*   per-opcode request/error counters and latency
//	                  histograms, live connections, registered
//	                  snapshots, pipelined requests, slow ops
//	hyrise_merge_*    merge counts, rows merged/reclaimed, per-phase
//	                  (freeze/merge/commit) and wall durations
//	hyrise_store_*    main/delta rows, delta fill fraction, active
//	                  shards, partitions, shard-map version
//	hyrise_epoch_*    current epoch, pins, oldest pinned epoch
//	hyrise_gc_*       GC bound and its age in epochs, rows retired,
//	                  dead versions seen vs. retained for live pins
//	hyrise_oplog_*    retained LSN bounds, entries, subscribers
//	hyrise_replica_*  applied/primary epochs, lag, applied LSN, stopped
//	hyrise_index_*    indexed vs. scanned read routing
//	hyrise_query_*    served queries' planner seeds (one per partition
//	                  read), estimated vs. actual driving-predicate
//	                  rows, indexed seeds
//	hyrise_reshard_*  reshards run, rows migrated, wall and cutover
//	                  durations
//
// DBServer.Registry exposes the registry; DBServer.ObsHandler serves it
// as /metrics (Prometheus text exposition) alongside /healthz (role- and
// lag-aware readiness, 503 on a follower whose applier stopped, with an
// optional min_epoch convergence bound) and
// /debug/pprof/*.  The hyrised daemon mounts that handler with
// -metrics-addr, logs ops slower than -slow-op-threshold as structured
// log/slog lines (opcode, duration, rows touched, snapshot epoch), and
// selects text or JSON logs with -log-format.  Remote processes read the
// same series over the data protocol via Client.Metrics, uptime
// (hyrise_server_uptime_seconds) and the cumulative per-op counts
// (hyrise_server_requests_total/errors_total{op}) included.
//
// Overhead: instruments on the request path are lock-free atomics bound
// per opcode at server construction — no allocation, no map lookups, no
// label rendering per request — and scrapes snapshot without stopping
// writers.  Every server collects metrics; the end-to-end point_rw
// workload in benchmark/ measures the request path with them on.
//
// The subpackages under internal implement the paper's substrate systems
// (bit-packed vectors, sorted dictionaries, CSB+ trees, the merge itself,
// the analytical cost model, workload generators and the experiment
// harness that cmd/mergebench runs); this package re-exports the surface a
// downstream application needs.
package hyrise

import (
	"cmp"

	"hyrise/internal/core"
	"hyrise/internal/model"
	"hyrise/internal/sched"
	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// Value is the constraint on column value types: any ordered type; the
// built-in column types use uint32, uint64 and string.
type Value interface{ cmp.Ordered }

// Column types.
const (
	// Uint32 stores 4-byte integers (the paper's E_j = 4 configuration).
	Uint32 = table.Uint32
	// Uint64 stores 8-byte integers (E_j = 8, the common case).
	Uint64 = table.Uint64
	// String stores strings, modelled as E_j = 16 fixed-length values.
	String = table.String
)

// Type identifies a column's value type.
type Type = table.Type

// ColumnDef declares one column.
type ColumnDef = table.ColumnDef

// Schema is an ordered list of column definitions.
type Schema = table.Schema

// Table is the store: rows hash-partitioned by a key column across one or
// more shards, each a Partition with its own merge lifecycle.  NewTable,
// NewShardedTable, Load and FollowStore all return one, and every
// entry point of this package — ColumnOf, NumericColumnOf, Query,
// NewScheduler, Save, Serve, EnableReplication — takes one.
//
// Row ids are table-scoped and stable: they carry the owning physical
// partition above the partition's own insertion-ordered id.  Partition 0's
// ids are its local ids, so a table that never resharded hands out dense
// ids 0, 1, 2, ....  Ids obtained from one table's reads are valid for
// that table's Update/Delete/Row/IsValid.
type Table = shard.Table

// Partition is one physical partition of a Table: per column a compressed
// main plus write-optimised deltas, merged online — the structure the
// paper describes and its experiments measure.
type Partition = table.Table

// NewTable creates an empty table of one shard, keyed on the first column
// (the key only matters once the table is resharded).
func NewTable(name string, schema Schema) (*Table, error) {
	if len(schema) == 0 {
		return nil, schema.Validate()
	}
	return shard.New(name, schema, schema[0].Name, 1)
}

// NewShardedTable creates an empty table hash-partitioned by the named key
// column across the given number of shards.
func NewShardedTable(name string, schema Schema, key string, shards int) (*Table, error) {
	return shard.New(name, schema, key, shards)
}

// TableStats summarizes one partition's storage (see Partition.Stats);
// each partition entry of StoreStats is one of these.
type TableStats = table.Stats

// ColumnStats summarizes one column's storage.
type ColumnStats = table.ColumnStats

// ReshardReport summarizes one completed online reshard
// (Table.Reshard): shard counts before and after, rows migrated,
// phase timings, and the published shard-map version and cutover epoch.
type ReshardReport = shard.ReshardReport

// Merge configuration and results.
type (
	// MergeOptions configures RequestMerge (and Partition.Merge).
	MergeOptions = table.MergeOptions
	// MergeReport summarizes a completed merge.  For a merge over several
	// partitions, Columns is nil and the counts aggregate all of them;
	// per-partition reports are each partition's LastMergeReport (see
	// Table.Partitions).
	MergeReport = table.Report
	// MergeStats holds one column's per-step merge timings.
	MergeStats = core.Stats
)

// Errors re-exported from the table layer.
var (
	ErrRowRange        = table.ErrRowRange
	ErrRowInvalid      = table.ErrRowInvalid
	ErrMergeInProgress = table.ErrMergeInProgress
	ErrNoColumn        = table.ErrNoColumn
	ErrArity           = table.ErrArity
	ErrReclaimed       = table.ErrReclaimed
)

// Scheduler is the background merge driver of one Table: it follows the
// store's live partition list and merges a partition when its delta grows
// past the configured fraction of its main.  Create with NewScheduler, then
// Start; MergeNow drains every partition on demand.
type Scheduler = sched.Scheduler

// SchedulerConfig tunes merge triggering; it applies to every partition.
type SchedulerConfig = sched.Config

// Multi-column queries (conjunctive predicates, positional refinement).
type (
	// Filter is one predicate of a conjunctive query.
	Filter = table.Filter
	// FilterOp is the predicate operator.
	FilterOp = table.Op
)

// Filter operators.
const (
	// FilterEq matches rows equal to Filter.Value.
	FilterEq = table.Eq
	// FilterBetween matches rows in [Filter.Value, Filter.Hi].
	FilterBetween = table.Between
)

// Analytical model (paper §6.1, §7.4).
type (
	// ModelArch holds architecture constants for the cost model.
	ModelArch = model.Arch
	// ModelWorkload describes one column merge in model terms.
	ModelWorkload = model.Workload
	// ModelPrediction is the model's per-step cost estimate.
	ModelPrediction = model.Prediction
)

// Predict evaluates the analytical model for one column merge.
func Predict(w ModelWorkload, a ModelArch, parallel bool) ModelPrediction {
	return model.Predict(w, a, parallel)
}
