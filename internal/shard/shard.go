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
// created, plus the active window — the suffix of partitions that key
// hashing currently routes writes to.  Reshard (see reshard.go) appends a
// new window, migrates rows into it and republishes the map; partitions
// outside the active window are sealed (no new row versions) but keep
// serving reads until garbage collection drains them.  Readers therefore
// fan out over ALL physical partitions, writers route over the active
// window only.
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
//     through the view (LookupAt/RangeAt/ScanAt/QueryAt/ValidRowsAt)
//     reflect one frozen state of the whole table, even while inserts,
//     updates, deletes, cross-shard moves, per-shard merges and online
//     reshards proceed underneath.  A latest read over several
//     partitions (Read, QueryAt, ValidRows, every Handle read) takes
//     such a snapshot for the call, so it too sees a row moving between
//     partitions exactly once.
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

// shardMap is one immutable routing state.  parts is append-only across
// map versions; the active window parts[base : base+n] is always the tail
// (base+n == len(parts)), so "sealed" and "outside the active window" are
// the same set.  During a reshard the map additionally carries the
// migration target window: writes route there, while base/n still name
// the pre-cutover active window (what NumShards reports until cutover).
type shardMap struct {
	version uint64
	parts   []*table.Table
	base, n int // active window: parts[base : base+n]

	migrating         bool
	nextBase, nextLen int // target window while migrating
}

// active returns the active window's partitions.
func (m *shardMap) active() []*table.Table { return m.parts[m.base : m.base+m.n] }

// writeWindow returns the window writes route to: the migration target
// while a reshard is in flight, the active window otherwise.
func (m *shardMap) writeWindow() (base, n int) {
	if m.migrating {
		return m.nextBase, m.nextLen
	}
	return m.base, m.n
}

// Table is a hash-partitioned collection of table.Table shards sharing one
// epoch clock.
type Table struct {
	name   string
	schema table.Schema
	keyIdx int
	clock  *epoch.Clock // shared by all shards; one capture = one epoch everywhere

	smap atomic.Pointer[shardMap]

	// reshardMu serializes reshards (and snapshot saves against them, via
	// PersistTopology callers holding the map they read).
	reshardMu sync.Mutex

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
// degenerate all-active case.  Partitions before activeBase are NOT
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
	m := &shardMap{version: version, base: activeBase, n: activeLen}
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
// view (the *At methods, QueryAt) see one frozen, cross-shard-consistent
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
func (st *Table) NumShards() int { return st.load().n }

// NumParts returns the physical partition count, including partitions
// retired by resharding that still hold readable history.
func (st *Table) NumParts() int { return len(st.load().parts) }

// MapVersion returns the current shard-map version.  It increments twice
// per reshard: once when migration begins, once at cutover.
func (st *Table) MapVersion() uint64 { return st.load().version }

// Resharding reports whether a reshard is migrating rows right now.
func (st *Table) Resharding() bool { return st.load().migrating }

// ActiveWindow returns the physical index of the first active partition
// and the active partition count; the active window is always the tail of
// the physical partition list.
func (st *Table) ActiveWindow() (base, n int) {
	m := st.load()
	return m.base, m.n
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
// nothing is converted or hashed (the partition validates the value);
// otherwise the value is normalized through table.Convert — so that e.g.
// int literals, uint32 and uint64 spellings of the same key agree — and
// hashed.
func (st *Table) routeFor(m *shardMap, key any) (int, error) {
	base, n := m.writeWindow()
	if n == 1 {
		return base, nil
	}
	cv, err := table.Convert(st.schema[st.keyIdx].Type, key)
	if err != nil {
		return 0, err
	}
	var h uint64
	switch x := cv.(type) {
	case uint32:
		h = mix64(uint64(x))
	case uint64:
		h = mix64(x)
	case string:
		h = fnv1a(x)
	}
	return base + int(h%uint64(n)), nil
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
		if !src.Sealed() {
			// Fast path: in-place update unless the key moves the row.
			newKey, keyChanged := changes[st.schema[st.keyIdx].Name]
			if !keyChanged {
				nl, err := src.Update(local, changes)
				if errors.Is(err, table.ErrSealed) {
					continue // sealed between the check and the update
				}
				if err != nil {
					return 0, err
				}
				return toGlobal(s, nl), nil
			}
			s2, err := st.routeFor(m, newKey)
			if err != nil {
				return 0, err
			}
			if s2 == s {
				nl, err := src.Update(local, changes)
				if errors.Is(err, table.ErrSealed) {
					continue
				}
				if err != nil {
					return 0, err
				}
				return toGlobal(s, nl), nil
			}
		}
		// Relocation: key moved, or the row sits in a sealed partition and
		// its new version must land in the active window.  Validate every
		// changed value against the schema before touching either
		// partition, so a bad value cannot strand the row.
		values, err := src.Row(local)
		if err != nil {
			return 0, err
		}
		for name, v := range changes {
			ci := -1
			for i, def := range st.schema {
				if def.Name == name {
					ci = i
				}
			}
			if ci < 0 {
				return 0, fmt.Errorf("%w: %q", table.ErrNoColumn, name)
			}
			cv, err := table.Convert(st.schema[ci].Type, v)
			if err != nil {
				return 0, err
			}
			values[ci] = cv
		}
		s2, err := st.routeFor(m, values[st.keyIdx])
		if err != nil {
			return 0, err
		}
		if s2 == s {
			// Routing resolved to the same (unsealed) partition after all.
			nl, err := src.Update(local, changes)
			if errors.Is(err, table.ErrSealed) {
				continue
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
		nl, err := table.MoveRow(src, local, m.parts[s2], values)
		if errors.Is(err, table.ErrSealed) {
			continue // destination sealed by a reshard racing this update
		}
		if err != nil {
			return 0, err
		}
		return toGlobal(s2, nl), nil
	}
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
