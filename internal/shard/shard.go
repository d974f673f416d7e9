// Package shard is the store: a Table hash-partitions rows by one key
// column across N independent table.Table partitions ("shards"), each with
// its own main partitions, delta partitions and merge lifecycle.  N = 1 is
// the paper's single table — one partition, no routing, no fan-out: every
// operation then runs inline on that partition and row ids are exactly the
// partition's dense insertion-ordered ids — and any store can grow to more
// shards online with Reshard.
//
// Sharding multiplies both halves of the paper's central trade (Krueger et
// al., VLDB 2011): inserts route by key hash and contend only on their own
// shard's lock, so write throughput scales with shards; and because every
// shard runs the multi-core merge independently, merges parallelize across
// shards as well as within columns, keeping each individual merge — and
// its brief commit lock — small.
//
// # Topology
//
// The routing state lives in an immutable shard map published through one
// atomic pointer: one list of routing windows, each a run of partitions a
// key hashes over, in physical order, the last of which takes writes.
// Reshard (see reshard.go) appends a new window, migrates rows into it and
// republishes the map; partitions outside the active window are sealed (no
// new row versions) but keep serving reads until garbage collection drains
// them, and a drained window leaves the store.  What the list holds is the
// store: whole-store reads, merges, statistics, the scheduler and a
// snapshot visit every partition of its windows, a read with an equality
// on the key column reads one partition per window, the one the key
// hashes to there, because every version of the key was written into
// exactly that partition of a window listed at the time.  Writers route
// over the last window only.

// Every read over partitions is one table.Plan run by Read.  A conjunctive
// query is no exception: table.Schema.Plan maps its filters and projection
// onto column positions once, and Read runs that plan on the partitions
// that can hold a match, summing the planner's account (table.Selection.Seeds and the rest) over
// the partitions read.
//
// Guarantees:
//
//   - A row lives in exactly one partition; current versions live in the
//     active window, determined by the hash of the key column value.
//     Updates that change the key value may relocate the row to another
//     partition; the move invalidates the old version and inserts the new
//     one under both partition locks with ONE epoch stamp, so it is atomic
//     to snapshots.
//   - Each partition's merge is individually atomic and online
//     (table.Merge).
//   - All partitions share one epoch clock, so Snapshot() captures a
//     single epoch that is consistent across every partition: reads
//     through the view (Read, the Handle *At reads, ValidRowsAt) reflect
//     one frozen state of the whole table, even while inserts, updates,
//     deletes, cross-shard moves, per-shard merges and online reshards
//     proceed underneath.  A view without a live pin reads exactly or
//     fails with table.ErrReclaimed, partition by partition (table.View).
//     A latest read over several partitions (Read, ValidRows, every
//     Handle read) takes such a snapshot for the call, so it too sees a
//     row moving between partitions exactly once.
//   - Global row ids are stable for the lifetime of the row version and
//     carry the owning physical partition in their high bits (independent
//     of the shard count), so they survive resharding.  Partition 0's ids
//     are its local ids: a store that never resharded hands out dense,
//     insertion-ordered ids.
package shard

import (
	"errors"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"hyrise/internal/epoch"
	"hyrise/internal/oplog"
	"hyrise/internal/table"
)

// localBits is the width of the partition-local row id inside a global
// row id: gid = phys<<localBits | local.  Fixed, so the encoding — and
// therefore every handed-out row id — survives reshards.
const localBits = 48

// MaxShards bounds the physical partition index a table may reach across
// its lifetime of reshards, holes included (the index must fit above
// localBits in a non-negative int); the snapshot loader (internal/persist)
// trusts the same bound, so any table New accepts round-trips through
// Save/Load.
const MaxShards = 1 << 15

// Errors returned by sharded-table operations.
var (
	// ErrNoShards is returned by New (and Reshard) for a shard count
	// outside [1, MaxShards], or when the next physical partition index
	// would exceed MaxShards.
	ErrNoShards = errors.New("shard: shard count must be in [1, 32768]")
	// ErrKeyColumn is returned by New when the key column does not exist.
	ErrKeyColumn = errors.New("shard: no such key column")
)

// window is one routing window: the partitions with physical indices
// base, base+1, ..., over which a key value routes to
// base + hash(key) % len(parts).
type window struct {
	base  int
	parts []*table.Table
}

// shardMap is one immutable routing state, the store's one partition
// list: in physical order, every window a reshard appended minus sealed
// ones garbage collection drained (pruned, leaving holes).  The last one
// takes writes.  It is also the
// active window (what NumShards reports), except while a reshard migrates
// into it: then the window before it stays active until cutover.  Every
// version with key k was written into the partition k routes to in a
// window listed at the time, so k's versions lie in readSet's partitions.
// A map loaded from a mid-reshard save awaits its cutover and prunes
// nothing until then (see PersistTopology).
type shardMap struct {
	version   uint64
	windows   []window
	migrating bool
	awaiting  bool
}

// writeWindow returns the window writes route to: the migration target
// while a reshard is in flight, the active window otherwise.
func (m *shardMap) writeWindow() window { return m.windows[len(m.windows)-1] }

// active returns the active window.
func (m *shardMap) active() window {
	if m.migrating {
		return m.windows[len(m.windows)-2]
	}
	return m.writeWindow()
}

// next returns the physical index the next reshard's first partition
// gets: one past the last window, so no index is ever reused.
func (m *shardMap) next() int {
	w := m.writeWindow()
	return w.base + len(w.parts)
}

// part returns the partition with physical index phys, or nil for an
// index in a hole or beyond the last window.
func (m *shardMap) part(phys int) *table.Table {
	for i := len(m.windows) - 1; i >= 0; i-- {
		if w := m.windows[i]; phys >= w.base {
			if phys-w.base < len(w.parts) {
				return w.parts[phys-w.base]
			}
			return nil
		}
	}
	return nil
}

// pruned returns m without the windows before the active one whose
// partitions hold no row version, or m itself when there is none or m
// awaits its cutover.  Such a window is sealed and past its reshard's
// cutover, so no write — a follower's replay included — adds a version to
// it again, and an empty one holds nothing any epoch can see.  The version
// is unchanged: pruning changes no routing.  A drained window's GC
// watermark stays: the remaining partitions are raised to it before the
// result is published, or a read below it would miss the rows a reshard
// moved out of the window.
func (m *shardMap) pruned() *shardMap {
	if m.awaiting {
		return m
	}
	act := m.active()
	keep := make([]window, 0, len(m.windows))
	var floor uint64
	for _, w := range m.windows {
		if f, ok := drained(w.parts); ok && w.base < act.base {
			floor = max(floor, f)
			continue
		}
		keep = append(keep, w)
	}
	if len(keep) == len(m.windows) {
		return m
	}
	for _, w := range keep {
		for _, p := range w.parts {
			p.RaiseGCWatermark(floor)
		}
	}
	out := *m
	out.windows = keep
	return &out
}

// drained reports whether no partition holds a row version, and their
// highest GC watermark.
func drained(parts []*table.Table) (floor uint64, ok bool) {
	for _, p := range parts {
		if p.Rows() != 0 {
			return 0, false
		}
		floor = max(floor, p.GCWatermark())
	}
	return floor, true
}

// Table is a hash-partitioned collection of table.Table shards sharing one
// epoch clock.
type Table struct {
	name   string
	schema table.Schema
	keyIdx int
	clock  *epoch.Clock // shared by all shards; one capture = one epoch everywhere

	smap atomic.Pointer[shardMap]

	// reshardMu serializes the writers of smap: reshards, their replay on
	// a follower, and pruning.
	reshardMu sync.Mutex

	// partsRead counts the partitions fanOut has read.
	partsRead atomic.Uint64

	// mu guards the slow-changing wiring below; never held on data paths.
	mu        sync.Mutex
	olog      *oplog.Log         // attached replication log, nil when unattached
	indexCols []string           // group-key indexes re-created on new partitions
	onMerge   func(table.Report) // the user's merge observer, see OnMerge
}

// Span is one routing window of a Topology: N partitions with physical
// indices Base, Base+1, ...
type Span struct{ Base, N int }

// Topology is a store's shard map as a snapshot records it: the routing
// windows in physical order (the last one active), the shard-map version,
// and whether the map was saved mid-reshard (see PersistTopology).
type Topology struct {
	Windows    []Span
	Version    uint64
	MidReshard bool
}

// New creates an empty store hash-partitioned by the named key column.
func New(name string, schema table.Schema, key string, shards int) (*Table, error) {
	return NewRestored(name, schema, key, Topology{Windows: []Span{{0, shards}}, Version: 1})
}

// NewRestored creates an empty store with an explicit topology, its
// windows ascending and disjoint (holes allowed); New is the one-window
// case.  A MidReshard store prunes nothing until it applies a cutover or
// reshards itself.  Partitions before the last window are NOT sealed here:
// the snapshot loader populates them first, then seals them.
func NewRestored(name string, schema table.Schema, key string, top Topology) (*Table, error) {
	end := 0
	for _, w := range top.Windows {
		if w.N < 1 || w.Base < end || w.Base+w.N > MaxShards {
			return nil, fmt.Errorf("%w: windows %v", ErrNoShards, top.Windows)
		}
		end = w.Base + w.N
	}
	if len(top.Windows) == 0 || top.Version == 0 {
		return nil, fmt.Errorf("%w: windows %v, map version %d", ErrNoShards, top.Windows, top.Version)
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	keyIdx := -1
	for i, def := range schema {
		if def.Name == key {
			keyIdx = i
		}
	}
	if keyIdx < 0 {
		return nil, fmt.Errorf("%w: %q", ErrKeyColumn, key)
	}
	st := &Table{name: name, schema: schema, keyIdx: keyIdx, clock: epoch.NewClock()}
	m := &shardMap{version: top.Version, awaiting: top.MidReshard}
	for _, w := range top.Windows {
		parts, _, err := st.newPartitions(w.Base, w.N)
		if err != nil {
			return nil, err
		}
		m.windows = append(m.windows, window{w.Base, parts})
	}
	st.smap.Store(m)
	return st, nil
}

// OnMerge installs fn as the merge observer of every partition, current
// and reshard-created alike (see table.Table.OnMerge): every partition
// merge — committed or aborted — delivers its report to fn, concurrently
// across partitions.  One observer per store; passing nil uninstalls.
func (st *Table) OnMerge(fn func(table.Report)) {
	st.mu.Lock()
	st.onMerge = fn
	st.mu.Unlock()
}

// merged is every partition's own merge observer: it passes the report to
// the store's observer (OnMerge), then prunes, so a window a merge drained
// leaves the store whoever ran the merge.
func (st *Table) merged(rep table.Report) {
	st.mu.Lock()
	fn := st.onMerge
	st.mu.Unlock()
	if fn != nil {
		fn(rep)
	}
	st.prune()
}

// load returns the current shard map.  Maps are immutable; a loaded map
// stays internally consistent for as long as the caller uses it, it just
// may no longer be the published one.
func (st *Table) load() *shardMap { return st.smap.Load() }

// Clock returns the epoch clock shared by every shard.
func (st *Table) Clock() *epoch.Clock { return st.clock }

// AttachOplog connects every partition's write path to one replication log
// (table.Table.AttachOplog), recording each partition's PHYSICAL index in
// its ops so a follower replays them into the matching partition.  The log
// must be stamped by the store's shared clock.  Attach before serving
// writes and before any Reshard; partitions a later reshard creates attach
// to the same log automatically.
func (st *Table) AttachOplog(l *oplog.Log) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for phys, p := range st.EachPartition() {
		if err := p.AttachOplog(l, phys); err != nil {
			return err
		}
	}
	st.olog = l
	return nil
}

// Snapshot captures one epoch across ALL shards atomically (a single
// fetch-add on the shared clock, no coordination with writers) and returns
// it as a read view pinned against garbage collection: reads through the
// view (Read, the *At methods) see one frozen, cross-shard-consistent
// state — exactly the rows current at the captured epoch, no matter how
// many updates, deletes, key moves or merges commit afterwards — and no
// shard's merge reclaims a version the view can see.  Release the view
// when done reading so reclamation can advance past it.
func (st *Table) Snapshot() table.View { return table.PinnedView(st.clock) }

// VisibleAt reports whether the row exists and is visible at the view's
// epoch; a view the GC has passed fails with table.ErrReclaimed.
func (st *Table) VisibleAt(v table.View, gid int) (bool, error) {
	p, local, err := locate(st.load(), gid)
	if err != nil {
		return false, nil
	}
	return p.VisibleAt(v, local)
}

// Name returns the table name.
func (st *Table) Name() string { return st.name }

// Schema returns the table schema.
func (st *Table) Schema() table.Schema { return st.schema }

// NumShards returns the ACTIVE shard count — the number of partitions key
// hashing spreads writes over.  It changes at reshard cutover; a sealed
// window still draining lists its partitions too (Partitions).
func (st *Table) NumShards() int { return len(st.load().active().parts) }

// PartitionsRead returns how many partitions the store's read fan-out
// has read since the store was created (see fanOut): a key read of a
// store with one window adds 1, a whole-store read every partition.
func (st *Table) PartitionsRead() uint64 { return st.partsRead.Load() }

// MapVersion returns the current shard-map version.  It increments twice
// per reshard: once when migration begins, once at cutover.
func (st *Table) MapVersion() uint64 { return st.load().version }

// Resharding reports whether a reshard is migrating rows right now.
func (st *Table) Resharding() bool { return st.load().migrating }

// KeyColumn returns the name of the hash-partitioning column.
func (st *Table) KeyColumn() string { return st.schema[st.keyIdx].Name }

// Shard returns the partition with physical index i (for inspection and
// tests), or nil when no window holds i: a drained window left, or i is
// beyond the last window.
func (st *Table) Shard(i int) *table.Table { return st.load().part(i) }

// EachPartition iterates over the store's partitions with their physical
// indices, in physical order: the partitions Partitions returns.
func (st *Table) EachPartition() iter.Seq2[int, *table.Table] {
	m := st.load()
	return func(yield func(int, *table.Table) bool) {
		for _, w := range m.windows {
			for i, p := range w.parts {
				if !yield(w.base+i, p) {
					return
				}
			}
		}
	}
}

// Global row ids pack a partition-local row id under its PHYSICAL partition
// index: gid = phys<<localBits | local.  The encoding is stable across
// merges (merges never renumber rows) and across reshards (it does not
// depend on the shard count, and physical partition indices are never
// reused), lets any layer route a gid back to its partition without a
// lookup table, and is the identity on partition 0.

// toGlobal encodes a partition-local row id as a global row id.
func toGlobal(phys, local int) int { return phys<<localBits | local }

// split decodes a non-negative global row id.
func split(gid int) (phys, local int) { return gid >> localBits, gid & (1<<localBits - 1) }

// globalize rewrites partition-local ids as global ids in place.
func globalize(phys int, ids []int) []int {
	if phys != 0 {
		for i, local := range ids {
			ids[i] = toGlobal(phys, local)
		}
	}
	return ids
}

// locate decodes a global row id against a shard map into its partition
// and local id.  It does not check that the local row exists; a gid whose
// partition left with its drained window is as retired as a reclaimed id.
func locate(m *shardMap, gid int) (p *table.Table, local int, err error) {
	if gid < 0 {
		return nil, 0, fmt.Errorf("%w: %d", table.ErrRowRange, gid)
	}
	phys, local := split(gid)
	if phys >= m.next() {
		return nil, 0, fmt.Errorf("%w: %d (no partition %d)", table.ErrRowRange, gid, phys)
	}
	if p = m.part(phys); p == nil {
		return nil, 0, fmt.Errorf("%w: %d (partition %d drained)", table.ErrRowInvalid, gid, phys)
	}
	return p, local, nil
}

// routeFor returns the physical index of the partition owning a key value
// in the map's write window.  A window of one partition owns every key, so
// nothing is converted or hashed (the partition validates the value).
func (st *Table) routeFor(m *shardMap, key any) (int, error) {
	w := m.writeWindow()
	if len(w.parts) == 1 {
		return w.base, nil
	}
	h, err := st.keyHash(key)
	if err != nil {
		return 0, err
	}
	return w.base + int(h%uint64(len(w.parts))), nil
}

// keyHash hashes a key value.  A value of any other spelling than the key
// column's own type is normalized through table.Convert first, so that
// e.g. int literals, uint32 and uint64 spellings of the same key agree.
func (st *Table) keyHash(key any) (uint64, error) {
	if h, ok := st.hashExact(key); ok {
		return h, nil
	}
	cv, err := table.Convert(st.schema[st.keyIdx].Type, key)
	if err != nil {
		return 0, err
	}
	h, _ := st.hashExact(cv)
	return h, nil
}

// hashExact hashes a key value spelled as the key column's own type; ok
// is false for any other spelling.
func (st *Table) hashExact(key any) (h uint64, ok bool) {
	typ := st.schema[st.keyIdx].Type
	switch x := key.(type) {
	case uint32:
		return mix64(uint64(x)), typ == table.Uint32
	case uint64:
		return mix64(x), typ == table.Uint64
	case string:
		return fnv1a(x), typ == table.String
	}
	return 0, false
}

// readSet appends to dst the physical partitions a read visits, in
// ascending order: for a key equality (key non-nil), the partition the key
// routes to in each window; otherwise every partition.  A key that does
// not convert reads every partition, whose own bind reports the error.
func (st *Table) readSet(m *shardMap, key any, dst []int) []int {
	var h uint64
	hashed := false
	for _, w := range m.windows {
		switch {
		case key == nil:
			for i := range w.parts {
				dst = append(dst, w.base+i)
			}
		case len(w.parts) == 1:
			dst = append(dst, w.base)
		default:
			if !hashed {
				var err error
				if h, err = st.keyHash(key); err != nil {
					return st.readSet(m, nil, dst[:0])
				}
				hashed = true
			}
			dst = append(dst, w.base+int(h%uint64(len(w.parts))))
		}
	}
	return dst
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed integer
// hash so that sequential keys spread evenly across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv1a hashes a string key (FNV-1a, 64-bit).
func fnv1a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Insert appends one row to the partition owning its key value and returns
// the global row id.  Concurrent inserts to different partitions do not
// contend.  An insert that races a reshard's seal simply re-routes through
// the fresh shard map (the op is retried, never half-applied).
func (st *Table) Insert(values []any) (int, error) {
	if len(values) != len(st.schema) {
		return 0, fmt.Errorf("%w: got %d want %d", table.ErrArity, len(values), len(st.schema))
	}
	for {
		m := st.load()
		s, err := st.routeFor(m, values[st.keyIdx])
		if err != nil {
			return 0, err
		}
		local, err := m.part(s).Insert(values)
		if errors.Is(err, table.ErrSealed) {
			continue // a reshard republished routing between load and insert
		}
		if err != nil {
			return 0, err
		}
		return toGlobal(s, local), nil
	}
}

// Update applies the insert-only update protocol to a global row id and
// returns the new version's global row id.  If the key column changes to a
// value hashing to a different partition — or the row's current partition
// was sealed by a reshard — the row relocates atomically (table.MoveRow):
// the invalidation and the re-insert happen under both partition locks
// with one epoch stamp, so concurrent updates of the same row resolve to
// exactly one winner (the losers see table.ErrRowInvalid) and any snapshot
// or fan-out query sees exactly one of the two versions.
func (st *Table) Update(gid int, changes map[string]any) (int, error) {
	for {
		m := st.load()
		src, local, err := locate(m, gid)
		if err != nil {
			return 0, err
		}
		s, _ := split(gid)
		// Route the new version once: it stays in place unless the key
		// changes to one that hashes elsewhere or a reshard sealed the row's
		// partition.  A moving row takes its values along, every changed
		// value checked against the schema before either partition is
		// touched, so a bad value cannot strand the row.
		dst := s
		if newKey, ok := changes[st.schema[st.keyIdx].Name]; ok {
			if dst, err = st.routeFor(m, newKey); err != nil {
				return 0, err
			}
		}
		var values []any
		if dst != s || src.Sealed() {
			if values, err = st.moved(src, local, changes); err != nil {
				return 0, err
			}
			if dst, err = st.routeFor(m, values[st.keyIdx]); err != nil {
				return 0, err
			}
		}
		if dst == s {
			nl, err := src.Update(local, changes)
			if errors.Is(err, table.ErrSealed) {
				continue // sealed by a reshard since the map was loaded
			}
			if err != nil {
				return 0, err
			}
			return toGlobal(s, nl), nil
		}
		// MoveRow atomically claims the current version and re-inserts it
		// into the target partition under both locks: if a concurrent
		// update got there first this fails with ErrRowInvalid and nothing
		// happened.  Row versions are immutable, so the values read above
		// are the claimed version's values.
		nl, err := table.MoveRow(src, local, m.part(dst), values)
		if errors.Is(err, table.ErrSealed) {
			continue // destination sealed by a reshard racing this update
		}
		if err != nil {
			return 0, err
		}
		return toGlobal(dst, nl), nil
	}
}

// moved returns the row's values with the changes applied, each converted
// to its column's type.
func (st *Table) moved(src *table.Table, local int, changes map[string]any) ([]any, error) {
	values, err := src.Row(local)
	if err != nil {
		return nil, err
	}
	for name, v := range changes {
		ci, err := st.schema.Index(name)
		if err != nil {
			return nil, err
		}
		if values[ci], err = table.Convert(st.schema[ci].Type, v); err != nil {
			return nil, err
		}
	}
	return values, nil
}

// Delete invalidates the row with the given global row id; its version
// history stays stored until garbage collection reclaims it.  Invalidation
// is allowed in sealed partitions (it creates no new version).
func (st *Table) Delete(gid int) error {
	p, local, err := locate(st.load(), gid)
	if err != nil {
		return err
	}
	return p.Delete(local)
}

// Row materializes all column values of a global row id (valid or not).
func (st *Table) Row(gid int) ([]any, error) {
	p, local, err := locate(st.load(), gid)
	if err != nil {
		return nil, err
	}
	return p.Row(local)
}

// IsValid reports whether the row is the current version.
func (st *Table) IsValid(gid int) bool {
	p, local, err := locate(st.load(), gid)
	if err != nil {
		return false
	}
	return p.IsValid(local)
}

// Rows returns the total number of stored row versions across partitions.
func (st *Table) Rows() int { return st.SumPartitions((*table.Table).Rows) }

// SumPartitions adds read up over the partitions.
func (st *Table) SumPartitions(read func(*table.Table) int) int {
	n := 0
	for _, p := range st.EachPartition() {
		n += read(p)
	}
	return n
}

// ValidRows returns the number of current rows across partitions; see
// ValidRowsAt.
func (st *Table) ValidRows() int { return st.ValidRowsAt(table.Latest()) }

// ValidRowsAt returns the number of rows visible at the view's epoch across
// all partitions: a Count plan without predicates read at one epoch (Read),
// so a row mid-move between partitions is counted exactly once, not in both
// partitions or neither.  Like the Handle *At reads it panics with
// table.ErrReclaimed on a view the GC has passed (see table.View).
func (st *Table) ValidRowsAt(v table.View) int {
	s, err := Read(st, v, table.Plan{Reduce: table.Count})
	if err != nil {
		panic(err)
	}
	return s.Count
}

// MainRows returns the summed main-partition tuple count.
func (st *Table) MainRows() int { return st.SumPartitions((*table.Table).MainRows) }

// DeltaRows returns the summed delta tuple count.
func (st *Table) DeltaRows() int { return st.SumPartitions((*table.Table).DeltaRows) }

// Merging reports whether any partition currently runs a merge.
func (st *Table) Merging() bool {
	for _, s := range st.EachPartition() {
		if s.Merging() {
			return true
		}
	}
	return false
}
