package hyrise

import (
	"context"
	"errors"
	"fmt"
	"io"

	"hyrise/internal/persist"
	"hyrise/internal/query"
	"hyrise/internal/sched"
	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/workload"
)

// Store is the single surface both table topologies implement: a flat
// *Table (one main/delta pair per column) and a hash-partitioned
// *ShardedTable (N independent such tables) expose identical data
// operations, statistics and merge control.  Every generic entry point of
// this package — ColumnOf, NumericColumnOf, Query, NewScheduler,
// NewDriver, Save, Load — takes a Store, so application code is written
// once and runs against either topology.
//
// Row ids are Store-scoped: a flat table hands out dense insertion-ordered
// ids, a sharded table hands out stable global ids that encode the owning
// shard (not dense, not globally ordered).  Ids obtained from one Store's
// reads are valid for that Store's Update/Delete/Row/IsValid.
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
	// MainRows returns the main-partition tuple count (summed over shards).
	MainRows() int
	// DeltaRows returns the delta tuple count (summed over shards).
	DeltaRows() int
	// Merging reports whether any merge is currently running.
	Merging() bool
	// RequestMerge runs the online merge process: a flat table merges
	// itself, a sharded table fans out across all shards in parallel
	// (MergeAll) and condenses the result into one report.
	RequestMerge(ctx context.Context, opts MergeOptions) (MergeReport, error)
	// Snapshot captures a consistent read view of the whole store with one
	// atomic epoch capture — no coordination with writers.  For a sharded
	// table the epoch is shared by all shards, so the view is consistent
	// across them.  Reads through the view (the *At methods, QueryAt) see
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
	// (consistent across shards, unlike summing per-partition counts).
	ValidRowsAt(v ReadView) int
	// VisibleAt reports whether the row exists and is visible at the
	// view's epoch — IsValid generalized to snapshots.
	VisibleAt(v ReadView, row int) bool
	// CreateIndex builds a merge-maintained group-key index over the named
	// column (every shard, for a sharded table) and keeps it rebuilt by
	// subsequent merges.  Idempotent; indexes are in-memory only and must
	// be re-created after Load.  See the package doc's "Secondary indexes"
	// section.
	CreateIndex(column string) error
	// IndexStats reports one entry per indexed column (aggregated across
	// shards for a sharded table).
	IndexStats() []IndexStats
	// StoreStats returns the topology-independent statistics snapshot.
	StoreStats() StoreStats
	// Partitions returns the physical table partitions in order: the table
	// itself for a flat table, one entry per shard otherwise.
	Partitions() []*Table
}

// ReadView is a frozen read epoch captured by Store.Snapshot.  Views are
// plain values: cheap to copy, valid for the life of the store.  A view
// from Snapshot pins its epoch against garbage collection until Release is
// called (copies share the pin; releasing any copy releases all).  The
// zero ReadView reads latest (current versions only) and needs no Release.
type ReadView = table.View

// Both topologies satisfy Store.
var (
	_ Store = (*Table)(nil)
	_ Store = (*ShardedTable)(nil)
)

// StoreStats is the unified statistics snapshot: aggregate counts plus
// per-partition detail (see table.StoreStats).
type StoreStats = table.StoreStats

// IndexStats describes one column's group-key index (see table.IndexStats);
// for a sharded table, postings/bytes/builds are summed across shards and
// LastBuild is the slowest shard's most recent rebuild.
type IndexStats = table.IndexStats

// ErrUnknownStore is returned by the generic entry points for a Store
// implementation other than *Table or *ShardedTable.
var ErrUnknownStore = errors.New("hyrise: unknown Store implementation (want *Table or *ShardedTable)")

// ErrDriverColumnType is returned by NewDriver when the driver column is
// not uint64.
var ErrDriverColumnType = workload.ErrDriverColumnType

// columnReader is the method set shared by the flat and sharded typed
// column views; the unified Handle dispatches through it.
type columnReader[V Value] interface {
	Get(row int) (V, error)
	Lookup(v V) []int
	LookupAt(view ReadView, v V) []int
	Range(lo, hi V) []int
	RangeAt(view ReadView, lo, hi V) []int
	Scan(fn func(row int, v V) bool)
	ScanAt(view ReadView, fn func(row int, v V) bool)
	Distinct() int
}

// Handle is a typed single-column view over a Store, supporting key
// lookups, range selects and scans over valid rows.  Backed by a flat
// table it reads one main/delta pair; backed by a sharded table, lookups
// and ranges fan out across all shards in parallel and return global row
// ids.
type Handle[V Value] struct {
	r columnReader[V]
}

// Get returns the value at a row id (valid or not).
func (h *Handle[V]) Get(row int) (V, error) { return h.r.Get(row) }

// Lookup returns the row ids of current rows whose value equals v.
func (h *Handle[V]) Lookup(v V) []int { return h.r.Lookup(v) }

// LookupAt is Lookup against the rows visible at the view's epoch.
func (h *Handle[V]) LookupAt(view ReadView, v V) []int { return h.r.LookupAt(view, v) }

// Range returns the row ids of current rows with value in [lo, hi].
func (h *Handle[V]) Range(lo, hi V) []int { return h.r.Range(lo, hi) }

// RangeAt is Range against the rows visible at the view's epoch.
func (h *Handle[V]) RangeAt(view ReadView, lo, hi V) []int { return h.r.RangeAt(view, lo, hi) }

// Scan streams every current row's value through fn; iteration stops early
// if fn returns false.  On a sharded table rows stream shard by shard, in
// per-shard insertion order.
func (h *Handle[V]) Scan(fn func(row int, v V) bool) { h.r.Scan(fn) }

// ScanAt is Scan against the rows visible at the view's epoch.
func (h *Handle[V]) ScanAt(view ReadView, fn func(row int, v V) bool) { h.r.ScanAt(view, fn) }

// CountEqual returns the number of current rows with value v.
func (h *Handle[V]) CountEqual(v V) int { return len(h.r.Lookup(v)) }

// CountEqualAt is CountEqual at the view's epoch.
func (h *Handle[V]) CountEqualAt(view ReadView, v V) int { return len(h.r.LookupAt(view, v)) }

// Distinct returns the number of distinct values among all stored row
// versions.
func (h *Handle[V]) Distinct() int { return h.r.Distinct() }

// numericReader is the aggregation method set shared by the flat and
// sharded numeric views.
type numericReader[V interface{ ~uint32 | ~uint64 }] interface {
	Sum() uint64
	SumAt(view ReadView) uint64
	Min() (V, bool)
	MinAt(view ReadView) (V, bool)
	Max() (V, bool)
	MaxAt(view ReadView) (V, bool)
}

// NumericHandle adds Sum/Min/Max aggregation over valid rows to integer
// columns; sharded aggregates combine per-shard partials computed in
// parallel.
type NumericHandle[V interface{ ~uint32 | ~uint64 }] struct {
	*Handle[V]
	n numericReader[V]
}

// Sum aggregates the column over current rows.
func (h *NumericHandle[V]) Sum() uint64 { return h.n.Sum() }

// SumAt aggregates over the rows visible at the view's epoch — on a
// sharded table a consistent cross-shard aggregate.
func (h *NumericHandle[V]) SumAt(view ReadView) uint64 { return h.n.SumAt(view) }

// Min returns the smallest value over current rows; ok is false when the
// store has no current row.
func (h *NumericHandle[V]) Min() (V, bool) { return h.n.Min() }

// MinAt is Min at the view's epoch.
func (h *NumericHandle[V]) MinAt(view ReadView) (V, bool) { return h.n.MinAt(view) }

// Max returns the largest value over current rows.
func (h *NumericHandle[V]) Max() (V, bool) { return h.n.Max() }

// MaxAt is Max at the view's epoch.
func (h *NumericHandle[V]) MaxAt(view ReadView) (V, bool) { return h.n.MaxAt(view) }

// ColumnOf returns a typed handle for the named column of either
// topology.  The type parameter must match the column's declared type
// (uint32, uint64 or string).
func ColumnOf[V Value](s Store, name string) (*Handle[V], error) {
	switch x := s.(type) {
	case *Table:
		h, err := table.ColumnOf[V](x, name)
		if err != nil {
			return nil, err
		}
		return &Handle[V]{r: h}, nil
	case *ShardedTable:
		h, err := shard.ColumnOf[V](x, name)
		if err != nil {
			return nil, err
		}
		return &Handle[V]{r: h}, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownStore, s)
	}
}

// NumericColumnOf returns a handle with aggregation support for either
// topology.
func NumericColumnOf[V interface{ ~uint32 | ~uint64 }](s Store, name string) (*NumericHandle[V], error) {
	switch x := s.(type) {
	case *Table:
		h, err := table.NumericColumnOf[V](x, name)
		if err != nil {
			return nil, err
		}
		return &NumericHandle[V]{Handle: &Handle[V]{r: h.Handle}, n: h}, nil
	case *ShardedTable:
		h, err := shard.NumericColumnOf[V](x, name)
		if err != nil {
			return nil, err
		}
		return &NumericHandle[V]{Handle: &Handle[V]{r: h.Handle}, n: h}, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownStore, s)
	}
}

// Query evaluates the conjunction of filters column-at-a-time over current
// rows and projects the named columns (nil projects nothing).  On a
// sharded table every shard evaluates in parallel and the results merge
// under global row ids; each shard reads its own per-shard snapshot.  Use
// QueryAt with a view from Snapshot for a cross-shard-consistent result.
func Query(s Store, filters []Filter, project []string) (*QueryResult, error) {
	return QueryAt(s, table.Latest(), filters, project)
}

// QueryAt is Query against the rows visible at the view's epoch: the
// result reflects one frozen state of the whole store — across all shards
// — even while writers and merges proceed.
func QueryAt(s Store, view ReadView, filters []Filter, project []string) (*QueryResult, error) {
	switch x := s.(type) {
	case *Table:
		return query.RunAt(x, view, filters, project)
	case *ShardedTable:
		return shard.QueryAt(x, view, filters, project)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownStore, s)
	}
}

// NewScheduler supervises every partition of s independently: each
// partition merges when its own delta fraction exceeds cfg.Fraction (N_D >
// Fraction * N_M, §4).  For a flat table that is one supervision loop; for
// a sharded table, one per shard, so a write-hot shard merges often while
// cold shards stay untouched.  Unless cfg.Threads is set, the machine's
// threads are divided evenly across partitions.
func NewScheduler(s Store, cfg SchedulerConfig) *Scheduler {
	parts := s.Partitions()
	targets := make([]sched.MergeTable, len(parts))
	for i, p := range parts {
		targets[i] = p
	}
	return sched.NewMulti(targets, cfg)
}

// NewDriver builds a workload driver executing a query mix against the
// named uint64 column of either topology.  A column of any other type
// returns ErrDriverColumnType.
func NewDriver(s Store, column string, mix Mix, gen Generator, seed int64) (*Driver, error) {
	if err := workload.CheckDriverColumn(s, column); err != nil {
		return nil, err
	}
	h, err := ColumnOf[uint64](s, column)
	if err != nil {
		return nil, err
	}
	return workload.NewDriverFor(s, column, h, mix, gen, seed)
}

// Save writes a binary snapshot of either topology.  The snapshot header
// is versioned and records the topology, key column and shard count, so a
// sharded table round-trips through Load with its shard layout, global row
// ids and per-shard main/delta split intact.
func Save(s Store, w io.Writer) error {
	switch x := s.(type) {
	case *Table:
		return persist.Save(x, w)
	case *ShardedTable:
		return persist.SaveSharded(x, w)
	default:
		return fmt.Errorf("%w: %T", ErrUnknownStore, s)
	}
}

// Load reads a snapshot written by Save and rebuilds the Store it
// describes, auto-detecting the topology from the snapshot header: a
// *Table for flat snapshots, a *ShardedTable for sharded ones.
func Load(r io.Reader) (Store, error) {
	ft, st, err := persist.LoadAny(r)
	if err != nil {
		return nil, err
	}
	if st != nil {
		return st, nil
	}
	return ft, nil
}

// SaveFile writes a snapshot of either topology to path.
func SaveFile(s Store, path string) error {
	switch x := s.(type) {
	case *Table:
		return persist.SaveFile(x, path)
	case *ShardedTable:
		return persist.SaveShardedFile(x, path)
	default:
		return fmt.Errorf("%w: %T", ErrUnknownStore, s)
	}
}

// LoadFile reads a snapshot file of either topology.
func LoadFile(path string) (Store, error) {
	ft, st, err := persist.LoadAnyFile(path)
	if err != nil {
		return nil, err
	}
	if st != nil {
		return st, nil
	}
	return ft, nil
}
