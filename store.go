package hyrise

import (
	"context"
	"errors"
	"fmt"
	"io"

	"hyrise/internal/persist"
	"hyrise/internal/sched"
	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/workload"
)

// Store is the storage surface: rows hash-partitioned by a key column
// across one or more partitions, each the paper's main/delta column store
// with its own online merge.  NewTable, NewShardedTable, Load and
// FollowStore all return the one implementation, *Table; every generic
// entry point of this package — ColumnOf, NumericColumnOf, Query,
// NewScheduler, NewDriver, Save, Serve — takes a Store.
//
// Row ids are Store-scoped and stable: they carry the owning physical
// partition above the partition's own insertion-ordered id.  Partition 0's
// ids are its local ids, so a store that never resharded hands out dense
// ids 0, 1, 2, ....  Ids obtained from one Store's reads are valid for
// that Store's Update/Delete/Row/IsValid.
type Store interface {
	// Name returns the table name.
	Name() string
	// Schema returns the ordered column definitions.
	Schema() Schema
	// Insert appends one row and returns its row id.
	Insert(values []any) (int, error)
	// InsertRows appends a batch of rows and returns their ids in input
	// order; the whole batch is validated before any row lands.
	InsertRows(rows [][]any) ([]int, error)
	// Update appends a new version of the row and invalidates the old one
	// (insert-only update), returning the new row id.
	Update(row int, changes map[string]any) (int, error)
	// Delete invalidates the row; the version history stays stored.
	Delete(row int) error
	// Row materializes all column values of a row (valid or not).
	Row(row int) ([]any, error)
	// IsValid reports whether the row is the current version.
	IsValid(row int) bool
	// Rows returns the total number of stored row versions.
	Rows() int
	// ValidRows returns the number of current rows.
	ValidRows() int
	// MainRows returns the main-partition tuple count (summed over
	// partitions).
	MainRows() int
	// DeltaRows returns the delta tuple count (summed over partitions).
	DeltaRows() int
	// Merging reports whether any merge is currently running.
	Merging() bool
	// RequestMerge runs the online merge process on every partition, and is
	// the one on-demand merge entry of a store.  With one partition the
	// report is that partition's, per-column detail and phase timings
	// included; with several the merges run concurrently, each with an even
	// share of opts.Threads, and condense into one report (per-partition
	// detail: Partitions()[i].LastMergeReport()).
	RequestMerge(ctx context.Context, opts MergeOptions) (MergeReport, error)
	// Snapshot captures a consistent read view of the whole store with one
	// atomic epoch capture — no coordination with writers.  The epoch is
	// shared by all partitions, so the view is consistent across them.
	// Reads through the view (the *At methods, QueryAt) see
	// exactly the rows current at the captured epoch, no matter how many
	// updates, deletes, key moves or merges commit afterwards.  The view
	// pins its epoch against garbage collection; call ReadView.Release
	// when done with it so merges can reclaim dead versions again.
	Snapshot() ReadView
	// SetGC enables or disables garbage collection during merges (on by
	// default): with GC on, merges drop every invalidated version that no
	// unreleased Snapshot view can see — begin <= E < end holds for none
	// of their epochs E — instead of copying it forever, and the reclaimed
	// row ids are retired (never reused; operations on them return
	// ErrRowInvalid).
	SetGC(enabled bool)
	// GCEnabled reports whether merges garbage-collect.
	GCEnabled() bool
	// ValidRowsAt returns the number of rows visible at the view's epoch
	// (consistent across partitions, unlike summing per-partition counts).
	ValidRowsAt(v ReadView) int
	// VisibleAt reports whether the row exists and is visible at the
	// view's epoch — IsValid generalized to snapshots.
	VisibleAt(v ReadView, row int) bool
	// CreateIndex builds a merge-maintained group-key index over the named
	// column (on every partition) and keeps it rebuilt by
	// subsequent merges.  Idempotent; indexes are in-memory only and must
	// be re-created after Load.  See the package doc's "Secondary indexes"
	// section.
	CreateIndex(column string) error
	// IndexStats reports one entry per indexed column (aggregated across
	// partitions).
	IndexStats() []IndexStats
	// StoreStats returns aggregate and per-partition statistics.
	StoreStats() StoreStats
	// Partitions returns the physical partitions in physical order: the
	// active shards plus any partitions retired by resharding.
	Partitions() []*Partition
}

// ReadView is a frozen read epoch captured by Store.Snapshot.  Views are
// plain values: cheap to copy, valid for the life of the store.  A view
// from Snapshot pins its epoch against garbage collection until Release is
// called (copies share the pin; releasing any copy releases all).  The
// zero ReadView reads latest (current versions only) and needs no Release.
type ReadView = table.View

var _ Store = (*Table)(nil)

// StoreStats is the statistics snapshot of a Store: aggregate counts plus
// per-partition detail (TableStats).
type StoreStats = shard.StoreStats

// IndexStats describes one column's group-key index; postings, bytes and
// builds are summed across partitions and LastBuild is the slowest
// partition's most recent rebuild.
type IndexStats = table.IndexStats

// ErrUnknownStore is returned by the generic entry points for a Store
// implementation other than *Table.
var ErrUnknownStore = errors.New("hyrise: unknown Store implementation (want *Table)")

// ErrDriverColumnType is returned by NewDriver when the driver column is
// not uint64.
var ErrDriverColumnType = workload.ErrDriverColumnType

// tableOf unwraps the one Store implementation.
func tableOf(s Store) (*Table, error) {
	if t, ok := s.(*Table); ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %T", ErrUnknownStore, s)
}

// Handle is a typed single-column view over a Store, supporting key
// lookups, range selects and scans over valid rows, by value (Lookup,
// Range, Scan, CountEqual, Distinct, Get) or at a ReadView's epoch (the At
// variants).  Every method runs the same-named read on each partition and
// combines: inline on a one-partition store, in parallel otherwise, always
// returning ascending row ids.  Scan/ScanAt callbacks run under a
// partition's read lock and must not call back into the store.
type Handle[V Value] = shard.Handle[V]

// NumericHandle adds Sum/Min/Max aggregation (and their At variants) over
// valid rows to integer columns.
type NumericHandle[V interface{ ~uint32 | ~uint64 }] = shard.NumericHandle[V]

// ColumnOf returns a typed handle for the named column.  The type
// parameter must match the column's declared type (uint32, uint64 or
// string).
func ColumnOf[V Value](s Store, name string) (*Handle[V], error) {
	t, err := tableOf(s)
	if err != nil {
		return nil, err
	}
	return shard.ColumnOf[V](t, name)
}

// NumericColumnOf returns a handle with aggregation support.
func NumericColumnOf[V interface{ ~uint32 | ~uint64 }](s Store, name string) (*NumericHandle[V], error) {
	t, err := tableOf(s)
	if err != nil {
		return nil, err
	}
	return shard.NumericColumnOf[V](t, name)
}

// Query evaluates the conjunction of filters column-at-a-time over current
// rows and projects the named columns (nil projects nothing).  See QueryAt.
func Query(s Store, filters []Filter, project []string) (*QueryResult, error) {
	return QueryAt(s, table.Latest(), filters, project)
}

// QueryAt is Query against the rows visible at the view's epoch: the
// result reflects one frozen state of the whole store — across all
// partitions, which evaluate in parallel — even while writers and merges
// proceed.  A latest view is pinned for the duration of the query.
func QueryAt(s Store, view ReadView, filters []Filter, project []string) (*QueryResult, error) {
	t, err := tableOf(s)
	if err != nil {
		return nil, err
	}
	return shard.QueryAt(t, view, filters, project)
}

// NewScheduler supervises s with one background merge driver.  It follows
// the live partition list — partitions an online Reshard creates are
// supervised from the next poll on — and merges each partition when that
// partition's own delta fraction exceeds cfg.Fraction (N_D > Fraction *
// N_M, §4): a write-hot shard merges often while cold shards stay
// untouched, different partitions merge concurrently, one merge per
// partition at a time.  Unless cfg.Threads is set, the machine's threads
// are divided evenly across the partitions that take writes (the active
// shards); Threads: 1 is the paper's constant single-thread background
// merge (§3, strategy (b)).
func NewScheduler(s Store, cfg SchedulerConfig) *Scheduler {
	return sched.New(s.Partitions, cfg)
}

// NewDriver builds a workload driver executing a query mix against the
// named uint64 column.  A column of any other type returns
// ErrDriverColumnType.
func NewDriver(s Store, column string, mix Mix, gen Generator, seed int64) (*Driver, error) {
	if err := workload.CheckDriverColumn(s, column); err != nil {
		return nil, err
	}
	h, err := ColumnOf[uint64](s, column)
	if err != nil {
		return nil, err
	}
	return workload.NewDriver(s, column, h, mix, gen, seed)
}

// Save writes a binary snapshot.  The versioned header records the key
// column and the shard map, so a store round-trips through Load with its
// partition layout, row ids, version history and per-partition main/delta
// split intact.
//
// The store may be in use: Save captures each partition under one read
// lock and encodes with no lock held, so writers, merges and garbage
// collection proceed and never fail a save; only w can.  Each partition is
// saved as of one instant, below the saved clock, but the instants differ:
// a key-changing update or reshard migration committing between two
// captures may be saved in neither or both of its partitions.  Keep such
// writers out of a multi-shard Save that must be exact across shards.
func Save(s Store, w io.Writer) error {
	t, err := tableOf(s)
	if err != nil {
		return err
	}
	return persist.Save(t, w)
}

// Load reads a snapshot written by Save and rebuilds the store it
// describes, without re-inserting rows or merging: a loaded partition
// reports MergeGeneration 0 and a zero LastMergeReport.  Input that is not
// a snapshot of the one supported version fails as malformed; an I/O error
// of r itself is returned as is.
func Load(r io.Reader) (*Table, error) { return persist.Load(r) }

// SaveFile writes a snapshot to path, atomically (temp file + rename).
func SaveFile(s Store, path string) error {
	t, err := tableOf(s)
	if err != nil {
		return err
	}
	return persist.SaveFile(t, path)
}

// LoadFile reads a snapshot file.
func LoadFile(path string) (*Table, error) { return persist.LoadFile(path) }
