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
// atomic pointer: the append-only list of every physical partition ever
// created, plus the listed routing windows — runs of partitions a key
// hashes over, the last of which takes writes.  Reshard (see reshard.go)
// appends a new window, migrates rows into it and republishes the map;
// partitions outside the active window are sealed (no new row versions)
// but keep serving reads until garbage collection drains them, and a
// drained window leaves the list.  Whole-store reads read every partition
// of the listed windows; a read with an equality on the key column reads
// one partition per listed window, the one the key hashes to there,
// because every version of the key was written into exactly that
// partition of a window listed at the time.  Writers route over the last
// window only.
//
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
//     proceed underneath.  A latest read over several partitions (Read,
//     ValidRows, every Handle read) takes such a snapshot for the call,
//     so it too sees a row moving between partitions exactly once.
//   - Global row ids are stable for the lifetime of the row version and
//     carry the owning physical partition in their high bits (independent
//     of the shard count), so they survive resharding.  Partition 0's ids
//     are its local ids: a store that never resharded hands out dense,
//     insertion-ordered ids.
package shard

import (
	"errors"
	"fmt"
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

// MaxShards bounds the physical partition count a table may reach across
// its lifetime of reshards (the partition index must fit above localBits
// in a non-negative int); the snapshot loader (internal/persist) trusts
// the same bound, so any table New accepts round-trips through Save/Load.
const MaxShards = 1 << 15

// Errors returned by sharded-table operations.
var (
	// ErrNoShards is returned by New (and Reshard) for a shard count
	// outside [1, MaxShards], or when the cumulative physical partition
	// count would exceed MaxShards.
	ErrNoShards = errors.New("shard: shard count must be in [1, 32768]")
	// ErrKeyColumn is returned by New when the key column does not exist.
	ErrKeyColumn = errors.New("shard: no such key column")
)

// window is one routing window: the partitions parts[base : base+n],
// over which a key value routes to base + hash(key) % n.
type window struct{ base, n int }

// shardMap is one immutable routing state.  parts is append-only across
// map versions and indexed physically.  windows lists, in physical order,
// the routing windows whose partitions can hold a version: every window a
// reshard appended, minus sealed ones garbage collection has drained
// (pruned).  The last one takes writes.  It is also the active window
// (what NumShards reports), except while a reshard migrates into it: then
// the window before it stays active until cutover.  Every version with key
// k was written into the partition k routes to in a window listed at the
// time, so k's versions lie in readSet's partitions.
type shardMap struct {
	version   uint64
	parts     []*table.Table
	windows   []window
	migrating bool
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

// listed returns the partitions of the listed windows in physical order.
func (m *shardMap) listed() []*table.Table {
	if len(m.windows) == 1 {
		w := m.windows[0]
		return m.parts[w.base : w.base+w.n]
	}
	var out []*table.Table
	for _, w := range m.windows {
		out = append(out, m.parts[w.base:w.base+w.n]...)
	}
	return out
}

// pruned returns m without the windows before the active one whose
// partitions hold no row version, or m itself when there is none.  Such a
// window is sealed and past its reshard's cutover, so no write — a
// follower's replay included — adds a version to it again, and an empty
// one holds nothing any epoch can see.  The version is unchanged: pruning
// changes no routing.
func (m *shardMap) pruned() *shardMap {
	act := m.active()
	keep := make([]window, 0, len(m.windows))
	for _, w := range m.windows {
		if w.base < act.base && empty(m.parts[w.base:w.base+w.n]) {
			continue
		}
		keep = append(keep, w)
	}
	if len(keep) == len(m.windows) {
		return m
	}
	out := *m
	out.windows = keep
	return &out
}

// empty reports whether no partition holds a row version.
func empty(parts []*table.Table) bool {
	for _, p := range parts {
		if p.Rows() != 0 {
			return false
		}
	}
	return true
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
	onMerge   func(table.Report) // merge observer, see OnMerge
}

// New creates an empty store hash-partitioned by the named key column.
func New(name string, schema table.Schema, key string, shards int) (*Table, error) {
	return NewRestored(name, schema, key, shards, 0, shards, 1)
}

// NewRestored creates a store with an explicit physical topology:
// parts physical partitions of which the tail window
// [activeBase, activeBase+activeLen) is active, at shard-map version
// version.  The snapshot loader uses it to restore a post-reshard (or
// mid-reshard, normalized to its cutover state) topology; New is the
// degenerate all-active case.  The snapshot does not record which window
// a partition before activeBase belonged to, so each is listed as a
// window of its own: one partition holds every key it routes, and a key
// read visits each of them.  Partitions before activeBase are NOT
// sealed here — the loader must populate them first and seal them itself
// (writes never route to them either way; sealing additionally keeps
// updates from parking new versions there).
func NewRestored(name string, schema table.Schema, key string, parts, activeBase, activeLen int, version uint64) (*Table, error) {
	if activeLen < 1 || parts < 1 || parts > MaxShards || activeBase+activeLen != parts {
		return nil, fmt.Errorf("%w: %d parts, active [%d,%d)", ErrNoShards, parts, activeBase, activeBase+activeLen)
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
	m := &shardMap{version: version}
	for i := 0; i < activeBase; i++ {
		m.windows = append(m.windows, window{i, 1})
	}
	m.windows = append(m.windows, window{activeBase, activeLen})
	for i := 0; i < parts; i++ {
		s, err := table.NewWithClock(fmt.Sprintf("%s/%d", name, i), schema, st.clock)
		if err != nil {
			return nil, err
		}
		m.parts = append(m.parts, s)
	}
	st.smap.Store(m)
	return st, nil
}

// OnMerge installs fn as the merge observer of every partition, current
// and reshard-created alike (see table.Table.OnMerge): every partition
// merge — committed or aborted — delivers its report to fn, concurrently
// across partitions.  One observer per store; passing nil uninstalls.
func (st *Table) OnMerge(fn func(table.Report)) {
	// Serialized with reshards, so a partition being created right now is
	// either wired by its reshard or already listed below.
	st.reshardMu.Lock()
	defer st.reshardMu.Unlock()
	st.mu.Lock()
	st.onMerge = fn
	st.mu.Unlock()
	for _, p := range st.load().parts {
		p.OnMerge(fn)
	}
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
	m := st.load()
	for i, s := range m.parts {
		if err := s.AttachOplog(l, i); err != nil {
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
// epoch.
func (st *Table) VisibleAt(v table.View, gid int) bool {
	m := st.load()
	s, local, err := locate(m, gid)
	if err != nil {
		return false
	}
	return m.parts[s].VisibleAt(v, local)
}

// Name returns the table name.
func (st *Table) Name() string { return st.name }

// Schema returns the table schema.
func (st *Table) Schema() table.Schema { return st.schema }

// NumShards returns the ACTIVE shard count — the number of partitions key
// hashing spreads writes over.  It changes at reshard cutover; see
// NumParts for the physical partition count.
func (st *Table) NumShards() int { return st.load().active().n }

// NumParts returns the physical partition count, including every
// partition retired by resharding, drained or not.
func (st *Table) NumParts() int { return len(st.load().parts) }

// PartitionsRead returns how many partitions the store's read fan-out
// has read since the store was created (see fanOut): a key read of a
// store with one listed window adds 1, a whole-store read every listed
// partition.
func (st *Table) PartitionsRead() uint64 { return st.partsRead.Load() }

// MapVersion returns the current shard-map version.  It increments twice
// per reshard: once when migration begins, once at cutover.
func (st *Table) MapVersion() uint64 { return st.load().version }

// Resharding reports whether a reshard is migrating rows right now.
func (st *Table) Resharding() bool { return st.load().migrating }

// ActiveWindow returns the physical index of the first active partition
// and the active partition count; the active window is always the tail of
// the physical partition list.
func (st *Table) ActiveWindow() (base, n int) {
	w := st.load().active()
	return w.base, w.n
}

// KeyColumn returns the name of the hash-partitioning column.
func (st *Table) KeyColumn() string { return st.schema[st.keyIdx].Name }

// Shard returns the physical partition with index i (for inspection and
// tests).  Indices at or beyond NumParts are the caller's error.
func (st *Table) Shard(i int) *table.Table { return st.load().parts[i] }

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

// locate decodes a global row id against a shard map.  It does not check
// that the local row exists.
func locate(m *shardMap, gid int) (phys, local int, err error) {
	if gid < 0 {
		return 0, 0, fmt.Errorf("%w: %d", table.ErrRowRange, gid)
	}
	phys, local = split(gid)
	if phys >= len(m.parts) {
		return 0, 0, fmt.Errorf("%w: %d (no partition %d)", table.ErrRowRange, gid, phys)
	}
	return phys, local, nil
}

// routeFor returns the physical index of the partition owning a key value
// in the map's write window.  A window of one partition owns every key, so
// nothing is converted or hashed (the partition validates the value).
func (st *Table) routeFor(m *shardMap, key any) (int, error) {
	w := m.writeWindow()
	if w.n == 1 {
		return w.base, nil
	}
	h, err := st.keyHash(key)
	if err != nil {
		return 0, err
	}
	return w.base + int(h%uint64(w.n)), nil
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
// routes to in each listed window; otherwise every listed partition.  A
// key that does not convert reads every listed partition, whose own bind
// reports the error.
func (st *Table) readSet(m *shardMap, key any, dst []int) []int {
	var h uint64
	hashed := false
	for _, w := range m.windows {
		switch {
		case key == nil:
			for p := w.base; p < w.base+w.n; p++ {
				dst = append(dst, p)
			}
		case w.n == 1:
			dst = append(dst, w.base)
		default:
			if !hashed {
				var err error
				if h, err = st.keyHash(key); err != nil {
					return st.readSet(m, nil, dst[:0])
				}
				hashed = true
			}
			dst = append(dst, w.base+int(h%uint64(w.n)))
		}
	}
	return dst
}

// shardFor routes a key value against the current map's write window
// (tests and diagnostics; data paths route against a map they loaded once
// so routing and insertion agree).
func (st *Table) shardFor(key any) (int, error) { return st.routeFor(st.load(), key) }

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
		local, err := m.parts[s].Insert(values)
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
		s, local, err := locate(m, gid)
		if err != nil {
			return 0, err
		}
		src := m.parts[s]
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
		nl, err := table.MoveRow(src, local, m.parts[dst], values)
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
	m := st.load()
	s, local, err := locate(m, gid)
	if err != nil {
		return err
	}
	return m.parts[s].Delete(local)
}

// Row materializes all column values of a global row id (valid or not).
func (st *Table) Row(gid int) ([]any, error) {
	m := st.load()
	s, local, err := locate(m, gid)
	if err != nil {
		return nil, err
	}
	return m.parts[s].Row(local)
}

// IsValid reports whether the row is the current version.
func (st *Table) IsValid(gid int) bool {
	m := st.load()
	s, local, err := locate(m, gid)
	if err != nil {
		return false
	}
	return m.parts[s].IsValid(local)
}

// Rows returns the total number of stored row versions across partitions.
func (st *Table) Rows() int {
	n := 0
	for _, s := range st.load().parts {
		n += s.Rows()
	}
	return n
}

// ValidRows returns the number of current rows across partitions; see
// ValidRowsAt.
func (st *Table) ValidRows() int { return st.ValidRowsAt(table.Latest()) }

// ValidRowsAt returns the number of rows visible at the view's epoch across
// all partitions: a Count plan without predicates, which cannot fail, read
// at one epoch (Read), so a row mid-move between partitions is counted
// exactly once, not in both partitions or neither.
func (st *Table) ValidRowsAt(v table.View) int {
	s, _ := Read(st, v, table.Plan{Reduce: table.Count})
	return s.Count
}

// MainRows returns the summed main-partition tuple count.
func (st *Table) MainRows() int {
	n := 0
	for _, s := range st.load().parts {
		n += s.MainRows()
	}
	return n
}

// DeltaRows returns the summed delta tuple count.
func (st *Table) DeltaRows() int {
	n := 0
	for _, s := range st.load().parts {
		n += s.DeltaRows()
	}
	return n
}

// Merging reports whether any partition currently runs a merge.
func (st *Table) Merging() bool {
	for _, s := range st.load().parts {
		if s.Merging() {
			return true
		}
	}
	return false
}
