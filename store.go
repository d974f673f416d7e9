package hyrise

import (
	"io"

	"hyrise/internal/persist"
	"hyrise/internal/sched"
	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// Store is *Table under its former name.  It remains only because the
// separate benchmark module still spells it; everything else takes *Table.
type Store = *Table

// ReadView is a frozen read epoch captured by Table.Snapshot.  Views are
// plain values, cheap to copy.  A view from Snapshot pins its epoch
// against garbage collection until Release is called (copies share the
// pin; releasing any copy releases all).  A released view reads exactly
// until a reclaiming merge passes its epoch; then its reads fail with
// ErrReclaimed (the At reads that return no error panic with it).  The
// zero ReadView reads latest (current versions only) and needs no Release.
type ReadView = table.View

// StoreStats is the statistics snapshot of a Table: aggregate counts plus
// per-partition detail (TableStats).
type StoreStats = shard.StoreStats

// IndexStats describes one column's group-key index; postings, bytes and
// builds are summed across partitions and LastBuild is the slowest
// partition's most recent rebuild.
type IndexStats = table.IndexStats

// Handle is a typed single-column view over a Table, supporting key
// lookups, range selects and scans over valid rows, by value (Lookup,
// Range, Scan, CountEqual, Distinct, Get) or at a ReadView's epoch (the At
// variants).  Every read runs at one epoch on every partition — over
// several, a latest read pins one snapshot for the call — and returns
// ascending row ids.  A handle holds only the table and the column, so
// each read covers the table's current partitions: it stays valid across
// a Reshard.  Scan/ScanAt callbacks run under a partition's read lock and
// must not call back into the store.
type Handle[V Value] = shard.Handle[V]

// NumericHandle adds Sum/Min/Max aggregation (and their At variants) over
// valid rows to integer columns.
type NumericHandle[V interface{ ~uint32 | ~uint64 }] = shard.NumericHandle[V]

// ColumnOf returns a typed handle for the named column.  The type
// parameter must match the column's declared type (uint32, uint64 or
// string).
func ColumnOf[V Value](t *Table, name string) (*Handle[V], error) {
	return shard.ColumnOf[V](t, name)
}

// NumericColumnOf returns a handle with aggregation support.
func NumericColumnOf[V interface{ ~uint32 | ~uint64 }](t *Table, name string) (*NumericHandle[V], error) {
	return shard.NumericColumnOf[V](t, name)
}

// QueryResult holds a query's matching rows and projected values.
type QueryResult struct {
	// Rows are matching row ids in ascending order.
	Rows []int
	// Columns are the projected column names (nil if no projection).
	Columns []string
	// Values[i] holds the projected values of Rows[i].
	Values [][]any
}

// Count returns the number of matching rows.
func (r *QueryResult) Count() int { return len(r.Rows) }

// Query evaluates the conjunction of filters column-at-a-time over current
// rows and projects the named columns (nil projects nothing).  See QueryAt.
func Query(t *Table, filters []Filter, project []string) (*QueryResult, error) {
	return QueryAt(t, table.Latest(), filters, project)
}

// QueryAt is Query against the rows visible at the view's epoch: the
// result reflects one frozen state of the whole store — across all
// partitions, which evaluate in parallel — even while writers and merges
// proceed.  Over several partitions a latest view is pinned for the query.
// The query is one plan (Schema.Plan) read like any other; an embedded
// query feeds no hyrise_query_* series, which count served queries only.
func QueryAt(t *Table, view ReadView, filters []Filter, project []string) (*QueryResult, error) {
	p, err := t.Schema().Plan(filters, project)
	if err != nil {
		return nil, err
	}
	sel, err := shard.Read(t, view, p)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Rows: sel.Rows, Columns: project, Values: sel.Values}, nil
}

// NewScheduler supervises t with one background merge driver.  It follows
// the live partition list — partitions an online Reshard creates are
// supervised from the next poll on — and merges each partition when that
// partition's own delta fraction exceeds cfg.Fraction (N_D > Fraction *
// N_M, §4): a write-hot shard merges often while cold shards stay
// untouched, different partitions merge concurrently, one merge per
// partition at a time.  cfg.Threads is every merge's budget (0 = the
// whole machine, strategy (a)); concurrent merges share the cores through
// the process's one worker pool rather than dividing it.  Threads: 1 is the
// paper's constant single-thread background merge (§3, strategy (b)).
func NewScheduler(t *Table, cfg SchedulerConfig) *Scheduler {
	return sched.New(t.Partitions, cfg)
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
func Save(t *Table, w io.Writer) error { return persist.Save(t, w) }

// Load reads a snapshot written by Save and rebuilds the store it
// describes, without re-inserting rows or merging: a loaded partition
// reports MergeGeneration 0 and a zero LastMergeReport.  Input that is not
// a snapshot of the one supported version fails as malformed; an I/O error
// of r itself is returned as is.
func Load(r io.Reader) (*Table, error) { return persist.Load(r) }

// SaveFile writes a snapshot to path, atomically (temp file + rename).
func SaveFile(t *Table, path string) error { return persist.SaveFile(t, path) }

// LoadFile reads a snapshot file.
func LoadFile(path string) (*Table, error) { return persist.LoadFile(path) }
