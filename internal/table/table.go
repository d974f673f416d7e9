// Package table implements the HYRISE table layer (paper §3): a fully
// decomposed (column-wise) store in which every attribute has a compressed
// read-optimized main partition and an uncompressed write-optimized delta
// partition.
//
// Modifications are insert-only: an UPDATE appends a new row version and
// invalidates the old one; a DELETE only invalidates.  The implicit row
// offset is shared by all columns, so columns are never re-sorted
// individually and the change history remains queryable.
//
// The merge process runs online: the table is locked only to freeze the
// delta and create a second delta (start) and to atomically install the
// merged mains and promote the second delta (end).  Queries and inserts
// proceed against main + frozen delta + second delta in between.  Every
// column merge is the paper's optimized merge (§5.3, internal/core); the
// naive baseline (§5.2) runs only in the experiments of internal/bench.
//
// Row visibility is multi-versioned: every row version has the epoch it was
// inserted and the epoch it was invalidated (internal/epoch), stamped from
// the table's epoch clock.  Snapshot captures one epoch (View); reads
// filtered through a View see exactly the rows current at that epoch, no
// matter how many updates, deletes or merges commit afterwards.  A delta
// row stores both epochs.  The main stores each row's begin and, as the
// paper's validity bit vector, a dead bitmap plus the end epochs of its
// dead rows only: a latest read of the main tests one bit per row, and a
// main with no dead row none at all.
//
// # Garbage collection
//
// Since version history is insert-only, a sustained update workload would
// grow the table without bound; the merge therefore doubles as the garbage
// collector.  At merge freeze the table copies the set of pinned epochs on
// its clock together with the current epoch (epoch.Clock.LivePins) and
// tests every dead version's [begin, end) validity interval against it: a
// version is dropped instead of copied into the new main when it is
// already invisible to the next capture (end <= now) and no pinned epoch
// E satisfies begin <= E < end (epoch.PinSet.Reclaimable, the per-reader
// visibility rule of Larson et al., VLDB 2011).  A long-lived pin thus
// retains only the versions visible at its own epoch, not everything
// invalidated since it was taken.  Values referenced only by reclaimed
// versions leave the merged dictionaries with them.
//
// Reclaiming physical rows forces row ids to be indirect: a row id is a
// stable id, and the table keeps the id of every physical slot in one
// slice, ids, that is strictly ascending — Insert appends the next id, a
// reclaiming merge removes entries in place without reordering, and Adopt
// rejects an image holding anything else.  An id is resolved to its slot by
// searching ids, within the few slots the id can occupy (slotFor: one probe
// on a table that never reclaimed a row); a merge that reclaims rows
// compacts ids without renumbering or re-indexing any survivor, so its
// write-locked commit costs one linear pass from the first reclaimed slot.  Reclaimed ids are retired — never reused — and
// every operation on a retired id keeps failing with ErrRowInvalid, exactly
// as it would on a merely invalidated row.  Views captured with Snapshot pin their epoch
// and must be Released for the versions they see to become reclaimable.  A
// reclaiming merge ratchets the table's GC watermark to its freeze-time
// epoch, and a read through a view that holds no live pin and lies below
// it fails with ErrReclaimed rather than answer with holes (View).
package table

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hyrise/internal/core"
	"hyrise/internal/epoch"
	"hyrise/internal/oplog"
)

// Type enumerates supported column types.
type Type int

const (
	// Uint32 is a 4-byte unsigned integer column (paper: E_j = 4).
	Uint32 Type = iota
	// Uint64 is an 8-byte unsigned integer column (E_j = 8).
	Uint64
	// String is a variable-length string column, modelled as E_j = 16.
	String
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Uint32:
		return "uint32"
	case Uint64:
		return "uint64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ColumnDef describes one attribute.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema is an ordered list of attributes.
type Schema []ColumnDef

// Validate checks for empty schemas, duplicate names and unknown types.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return errors.New("table: empty schema")
	}
	seen := map[string]bool{}
	for _, c := range s {
		if c.Name == "" {
			return errors.New("table: unnamed column")
		}
		if seen[c.Name] {
			return fmt.Errorf("table: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		switch c.Type {
		case Uint32, Uint64, String:
		default:
			return fmt.Errorf("table: column %q has unknown type %v", c.Name, c.Type)
		}
	}
	return nil
}

// Index resolves a column name to its position.
func (s Schema) Index(name string) (int, error) {
	for i, c := range s {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrNoColumn, name)
}

// Errors returned by table operations.
var (
	ErrRowRange        = errors.New("table: row id out of range")
	ErrRowInvalid      = errors.New("table: row already invalidated")
	ErrMergeInProgress = errors.New("table: merge already in progress")
	ErrNoColumn        = errors.New("table: no such column")
	ErrArity           = errors.New("table: value count does not match schema")
	// ErrColumnType rejects a value the column's type cannot hold, and a
	// Sum or MinMax over a column that is not an integer column.
	ErrColumnType = errors.New("table: value does not fit column type")
	// ErrSealed rejects writes that would create a new row version in a
	// partition retired by online resharding.  Invalidation (Delete) and
	// moving rows OUT remain allowed; the sharded router reacts to
	// ErrSealed by re-routing the write through the current shard map.
	ErrSealed = errors.New("table: partition sealed for resharding")
	// ErrReclaimed fails a read whose view a garbage-collecting merge has
	// passed: the view holds no live pin and its epoch is below the
	// partition's committed GC watermark, so versions it could see may be
	// gone.  A read at epoch E answers exactly the versions with
	// begin <= E < end, or fails with it.
	ErrReclaimed = errors.New("table: read epoch reclaimed by garbage collection")
)

// lockSeq hands every table a unique id; MoveRow orders its two lock
// acquisitions by it to stay deadlock-free.
var lockSeq atomic.Uint64

// Table is a column store with main/delta partitions per attribute.
type Table struct {
	name   string
	schema Schema
	clock  *epoch.Clock // epoch source; shared across shards of one store
	lockID uint64       // MoveRow lock-ordering id

	mu   sync.RWMutex // guards cols' partition pointers, epochs, rows
	cols []column
	// epochs holds every stored version's visibility: begin epochs, the
	// main's dead bitmap and exceptions, the delta's end epochs.
	// Invariant: begin is non-decreasing in slot order.  Stamps are read
	// under mu from a monotone clock (or a monotone op log on a follower),
	// appends go to the last slot (insertLocked; a replayed stamp below the
	// last begin is refused), and merges and GC keep slot order; Adopt
	// rejects an image that breaks it.  The main's reads find the rows that
	// began by an epoch by binary search on it (epoch.Rows.MainAt).
	epochs epoch.Rows
	rows   int

	// Stable row-id indirection: row ids handed out by Insert are stable
	// ids; ids[slot] is the id stored at a physical slot.  Invariant: ids is
	// strictly ascending and every entry is below nextID.  slotFor's search,
	// the partition image (Image -> Adopt, which rejects anything else) and
	// every reader that reports rows in id order rely on it; insertLocked
	// (append nextID) and compactRowsLocked (order-preserving removal)
	// maintain it.  A garbage-collecting merge compacts the
	// physical slots and retires the reclaimed ids (gone from ids, never
	// reused).
	ids       []int // physical slot -> stable id, strictly ascending
	nextID    int   // next stable id; ids below it absent from ids are retired
	retired   int   // stable ids retired by GC (cumulative)
	reclaimed int   // estimated bytes reclaimed by GC (cumulative)
	rowBytes  int   // estimated bytes per row (values + epochs + id)

	// What the last committed merge's reclaim decision saw besides its
	// Report (MayReclaim): the pins that kept a dead version from it, and
	// the lowest end epoch it kept only because the clock had not reached
	// it (a follower's replayed stamps run ahead of its clock; 0 with
	// none).
	gcHeld  []*epoch.Pin
	gcAhead uint64

	gcWatermark uint64 // highest watermark a committed GC merge applied
	sealed      bool   // retired by resharding: no new row versions

	// gcDrop holds the physical slots the in-flight merge reclaims
	// (computed at freeze under mu, applied at commit); zero when the merge
	// found nothing reclaimable.
	gcDrop core.Drop
	gcMark uint64

	mergeMu   sync.Mutex // serializes whole merges; held across a merge
	merging   bool       // true between beginMerge and commit/abort (under mu)
	mergeGen  int
	lastMerge Report
	mergeHook atomic.Value // func(Report); observer for committed/aborted merges

	// Read-routing observability: how many point/range reads Read served
	// from a group-key index vs. a column scan.  Plain atomics
	// so the read path never takes an extra lock for accounting.
	routeIndexed atomic.Uint64
	routeScanned atomic.Uint64

	// olog, when attached, is the replication op log: mutations record
	// their op in it and take their epoch stamp from the append (see
	// oplog.Log.Append), which totally orders the log.  oshard is this
	// partition's index in the op stream.
	olog   *oplog.Log
	oshard uint32
}

// New creates an empty table with its own epoch clock.
func New(name string, schema Schema) (*Table, error) {
	return NewWithClock(name, schema, epoch.NewClock())
}

// NewWithClock creates an empty table stamping row epochs from the given
// clock.  A store passes one clock to all its shards so a single capture
// freezes every shard at the same epoch.
func NewWithClock(name string, schema Schema, clock *epoch.Clock) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		name: name, schema: schema, clock: clock, lockID: lockSeq.Add(1),
		rowBytes: 8 + 16, // stable id + begin/end epochs
	}
	for _, def := range schema {
		t.cols = append(t.cols, newColumn(def))
		switch def.Type {
		case Uint32:
			t.rowBytes += 4
		case String:
			t.rowBytes += 16 // E_j = 16, the paper's fixed-length model
		default:
			t.rowBytes += 8
		}
	}
	return t, nil
}

// RetiredRows returns the number of row ids retired by garbage collection.
func (t *Table) RetiredRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.retired
}

// ReclaimedBytes returns the estimated bytes reclaimed by garbage
// collection (dropped versions times the schema's modelled row width).
func (t *Table) ReclaimedBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.reclaimed
}

// GCWatermark returns the highest watermark a committed garbage-collecting
// merge has applied (0 before the first one).
func (t *Table) GCWatermark() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.gcWatermark
}

// RaiseGCWatermark lifts the GC watermark to w if higher, so reads below w
// fail with ErrReclaimed as if a merge here had reclaimed at w.
func (t *Table) RaiseGCWatermark(w uint64) {
	t.mu.Lock()
	t.gcWatermark = max(t.gcWatermark, w)
	t.mu.Unlock()
}

// Seal marks the partition as retired by online resharding: every write
// that would create a new row version here (Insert, InsertRows, in-place
// Update, MoveRow in) fails with ErrSealed from now on.  Reads, Delete,
// moving rows out, merges and replica Apply* replay are unaffected —
// sealed partitions keep serving pinned history until GC drains them.
// Sealing is idempotent and permanent; it acquires the write lock, so
// when Seal returns no in-flight write can still land a version here.
func (t *Table) Seal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sealed = true
}

// Sealed reports whether the partition was retired by resharding.
func (t *Table) Sealed() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sealed
}

// NextRowID returns the next stable row id the table will assign.
func (t *Table) NextRowID() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextID
}

// slotFor resolves a stable row id to its physical slot (t.mu held).  Ids
// never handed out fail with ErrRowRange; retired ids with ErrRowInvalid.
//
// ids is strictly ascending, so slot <= ids[slot], and only the
// nextID-len(ids) retired ids can be missing below any entry, so
// ids[slot] <= slot+retired: the id can only sit in [id-retired, id].  A
// table that never reclaimed a row checks the one slot ids[id].  Otherwise
// the window is searched, the first slotInterpolations probes placed by
// linear interpolation between its ends — reclaimed ids are spread over the
// id space by whatever rows the workload updates, which lands within a few
// slots in two or three probes where bisecting takes log2(retired), each a
// cache miss — and the rest by bisection, which bounds the worst case at
// slotInterpolations + log2(retired+1) probes for any distribution.
func (t *Table) slotFor(id int) (int, error) {
	if id < 0 || id >= t.nextID {
		return 0, fmt.Errorf("%w: %d", ErrRowRange, id)
	}
	lo := max(id-(t.nextID-len(t.ids)), 0)
	hi := min(id, len(t.ids)-1)
	for probe := 0; lo <= hi; probe++ {
		a, b := t.ids[lo], t.ids[hi]
		if id < a || id > b {
			break
		}
		mid := int(uint(lo+hi) >> 1)
		if probe < slotInterpolations && a < b {
			mid = lo + int(float64(id-a)/float64(b-a)*float64(hi-lo))
		}
		switch at := t.ids[mid]; {
		case at == id:
			return mid, nil
		case at < id:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return 0, fmt.Errorf("%w: %d (reclaimed)", ErrRowInvalid, id)
}

// slotInterpolations is how many probes slotFor places by interpolation
// before it falls back to bisection.
const slotInterpolations = 4

// Clock returns the table's epoch clock.
func (t *Table) Clock() *epoch.Clock { return t.clock }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// NumColumns returns N_C.
func (t *Table) NumColumns() int { return len(t.schema) }

// Insert appends one row; values must match the schema's arity and types.
// It returns the new row id.  It is a one-row InsertRows.
func (t *Table) Insert(values []any) (int, error) {
	ids, err := t.InsertRows([][]any{values})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// insertLocked appends a row stamped as inserted at epoch at and returns
// its stable id.  The stamp must have been read from the clock while t.mu
// was already held — that is what makes each mutation atomic with respect
// to snapshot captures — and must be at or above the last slot's begin
// (epoch.Rows.LastBegin), which keeps begin non-decreasing in slot order:
// a stamp read under t.mu from the clock or the op log is, and the Apply*
// replay paths refuse one that is not with ErrReplayGap.
func (t *Table) insertLocked(values []any, at uint64) int {
	for i, v := range values {
		t.cols[i].appendValue(v)
	}
	t.rows++
	t.epochs.Append(at)
	id := t.nextID
	t.nextID++
	t.ids = append(t.ids, id)
	return id
}

// Update models an UPDATE as insert + invalidate (paper §3): it reads the
// current version of row id, overlays the changed columns, appends the new
// version and invalidates the old one.  It returns the new row id.
func (t *Table) Update(row int, changes map[string]any) (int, error) {
	for name, v := range changes {
		i, err := t.schema.Index(name)
		if err != nil {
			return 0, err
		}
		if err := t.cols[i].checkValue(v); err != nil {
			return 0, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return 0, ErrSealed
	}
	slot, err := t.slotFor(row)
	if err != nil {
		return 0, err
	}
	if !t.epochs.Alive(slot) {
		return 0, fmt.Errorf("%w: %d", ErrRowInvalid, row)
	}
	values := make([]any, len(t.cols))
	for i := range t.cols {
		values[i] = t.cols[i].get(slot)
	}
	for name, v := range changes {
		i, _ := t.schema.Index(name)
		values[i] = v
	}
	// One stamp for both sides makes the version switch atomic: a snapshot
	// at any epoch sees exactly one of the two versions.
	at := t.clock.Now()
	if t.olog != nil {
		at = t.olog.Append([]oplog.Rec{{
			Kind: oplog.KindUpdate, Shard: t.oshard,
			ID: uint64(row), ID2: uint64(t.nextID),
			Rows: [][]any{t.logRow(values)},
		}})
	}
	t.epochs.Invalidate(slot, at)
	return t.insertLocked(values, at), nil
}

// Delete invalidates a row; the version remains stored until a
// garbage-collecting merge reclaims it.
func (t *Table) Delete(row int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, err := t.slotFor(row)
	if err != nil {
		return err
	}
	if !t.epochs.Alive(slot) {
		return fmt.Errorf("%w: %d", ErrRowInvalid, row)
	}
	at := t.clock.Now()
	if t.olog != nil {
		at = t.olog.Append([]oplog.Rec{{Kind: oplog.KindDelete, Shard: t.oshard, ID: uint64(row)}})
	}
	t.epochs.Invalidate(slot, at)
	return nil
}

// Row materializes all column values of a row (valid or not).  A row
// reclaimed by garbage collection fails with ErrRowInvalid.
func (t *Table) Row(row int) ([]any, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, err := t.slotFor(row)
	if err != nil {
		return nil, err
	}
	out := make([]any, len(t.cols))
	for i := range t.cols {
		out[i] = t.cols[i].get(slot)
	}
	return out, nil
}

// IsValid reports whether the row is the current version.
func (t *Table) IsValid(row int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, err := t.slotFor(row)
	return err == nil && t.epochs.Alive(slot)
}

// Rows returns the number of physically stored row versions (reclaimed
// versions no longer count; see RetiredRows for how many were reclaimed).
func (t *Table) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// ValidRows returns the number of current (non-invalidated) rows: the
// stored versions less the dead ones, in O(1).
func (t *Table) ValidRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows - t.epochs.Dead()
}

// MayReclaim reports whether a merge now could reclaim a dead version the
// last committed merge could not: some are stored, and either the dead
// versions are not the ones that merge kept, a pin that kept one of them
// has been released, or the clock has reached a stamp it kept because the
// clock lagged it.  It costs O(1) per pin that kept a version.  While
// pins alone retain the dead versions a merge kept, it is false — other
// pins coming and going, such as those of fan-out reads, change nothing —
// so no scheduler rewrites the main for nothing.
func (t *Table) MayReclaim() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d := t.epochs.Dead()
	kept := t.lastMerge.DeadAtFreeze - t.lastMerge.RowsReclaimed
	return d > 0 && (d != kept || slices.ContainsFunc(t.gcHeld, (*epoch.Pin).Released) ||
		t.gcAhead != 0 && t.clock.Now() >= t.gcAhead)
}

// ValidRowsAt returns the number of rows visible at the view's epoch: a
// Count plan without predicates.  It panics with ErrReclaimed on a view the
// GC has passed (see View), the one way that plan can fail.
func (t *Table) ValidRowsAt(v View) int {
	s, err := t.Read(v, Plan{Reduce: Count})
	if err != nil {
		panic(err)
	}
	return s.Count
}

// MainRows returns the tuple count of the main partitions.
func (t *Table) MainRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].mainLen()
}

// DeltaRows returns the tuple count accumulated in the delta partitions
// (frozen plus second delta during a merge).
func (t *Table) DeltaRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].deltaLen()
}

// DeltaFraction returns N_D / N_M, the merge-trigger metric of §4.
func (t *Table) DeltaFraction() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.cols) == 0 {
		return 0
	}
	nm := t.cols[0].mainLen()
	nd := t.cols[0].deltaLen()
	if nm == 0 {
		if nd == 0 {
			return 0
		}
		return 1
	}
	return float64(nd) / float64(nm)
}

// OnMerge installs fn as the merge observer: every Merge — committed or
// aborted — delivers its Report to fn after the table locks are released,
// in commit order.  One observer per table; passing nil uninstalls.  fn
// must not call back into Merge (it runs while the merge mutex is held).
func (t *Table) OnMerge(fn func(Report)) {
	if fn == nil {
		fn = func(Report) {}
	}
	t.mergeHook.Store(fn)
}

// RoutingCounts returns how many reads Read served from a group-key index
// versus a column scan (cumulative).
func (t *Table) RoutingCounts() (indexed, scanned uint64) {
	return t.routeIndexed.Load(), t.routeScanned.Load()
}

// Merging reports whether a merge is currently running.
func (t *Table) Merging() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.merging
}

// MergeGeneration counts committed merges.
func (t *Table) MergeGeneration() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mergeGen
}

// ColumnStats describes one column's storage.
type ColumnStats struct {
	Def         ColumnDef
	MainRows    int
	DeltaRows   int
	UniqueMain  int
	UniqueDelta int
	Bits        uint
	SizeBytes   int
	LastMerge   core.Stats
}

// Stats summarizes the whole table.
type Stats struct {
	Name      string
	Rows      int
	ValidRows int
	MainRows  int
	DeltaRows int
	SizeBytes int
	// RetiredRows counts row ids retired by garbage-collecting merges
	// (cumulative); ReclaimedBytes estimates the memory those reclaimed
	// versions occupied.
	RetiredRows    int
	ReclaimedBytes int
	Columns        []ColumnStats
}

// Stats returns a consistent snapshot of storage statistics.
func (t *Table) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{
		Name: t.name, Rows: t.rows, ValidRows: t.rows - t.epochs.Dead(),
		SizeBytes: t.sizeBytesLocked(), RetiredRows: t.retired, ReclaimedBytes: t.reclaimed,
	}
	for _, c := range t.cols {
		s.Columns = append(s.Columns, c.stats())
	}
	if len(t.cols) > 0 {
		s.MainRows = t.cols[0].mainLen()
		s.DeltaRows = t.cols[0].deltaLen()
	}
	return s
}

// SizeBytes returns Stats().SizeBytes.
func (t *Table) SizeBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sizeBytesLocked()
}

// sizeBytesLocked is the storage footprint: every column's main and
// deltas plus the row metadata — the stable ids and the epochs
// (epoch.Rows.SizeBytes: begin per row, the main's bitmap and exceptions,
// the delta's ends).  The caller holds t.mu.
func (t *Table) sizeBytesLocked() int {
	n := t.epochs.SizeBytes() + 8*len(t.ids)
	for _, c := range t.cols {
		n += c.stats().SizeBytes
	}
	return n
}
