package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hyrise/internal/oplog"
	"hyrise/internal/table"
)

// This file implements online resharding: changing the active shard count
// of a live store while readers — including pinned snapshots and
// replication followers — keep running against a consistent view
// throughout.
//
// # Protocol
//
// Reshard(n) appends a window of n fresh partitions to the shard map and
// makes it the new active window in three phases:
//
//  1. Prepare: the new partitions are created, attached to the oplog,
//     indexed like the existing ones, and announced with a
//     KindReshardBegin op BEFORE any routing change — a follower replaying
//     the log in LSN order therefore always creates the partitions before
//     the first op that targets them.  Then the migrating shard map is
//     published (writes now route to the new window) and every old
//     partition is sealed.  Seal takes each partition's write lock, so it
//     is a barrier: every write that routed by the old map has fully
//     committed — and logged — before migration starts.
//  2. Migrate: one pass over the sealed partitions relocates every current
//     row version into the new window with table.MoveRow — an atomic
//     invalidate-plus-insert under both partition locks with ONE epoch
//     stamp, flowing through the oplog as an ordinary KindMove.  A row the
//     pass cannot claim (table.ErrRowInvalid) was concurrently deleted or
//     updated; updates relocate out of sealed partitions themselves, so
//     either way the row needs no migration.  The pass is complete:
//     sealed partitions gain no new versions, so one scan suffices.
//  3. Cutover: a KindReshardCutover op is appended — its epoch stamp is
//     the cutover epoch — and the final map (active window = the new
//     partitions) is published atomically.
//
// # What readers observe
//
// Row versions never change content and moves are snapshot-atomic, so a
// read at any epoch returns identical results before, during and after the
// reshard: versions visible at pre-move epochs remain in the sealed
// partitions (subject to the normal GC retention rules — a pinned snapshot
// keeps them), and the sealed window stays in the map, so reads keep
// visiting it (a key read the one partition the key hashes to there), for
// as long as any of its partitions holds a version.  Writers racing the reshard
// retry transparently through the republished map.  A writer whose row
// the migration claims first observes table.ErrRowInvalid, exactly as
// when it loses to a concurrent updater: re-locate the row by key and
// retry with the new global row id.
//
// Sealed partitions drain toward empty as GC merges reclaim their
// invalidated versions.  The merge that empties a sealed window (any
// merge: see Table.merged), or else the next cutover, removes it from the
// map, so nothing visits it again.  It leaves a hole in the physical
// numbering: no index is reused, surviving global row ids stay valid, and
// an id in the hole answers table.ErrRowInvalid, as a reclaimed id does.

// ReshardReport describes one completed reshard.
type ReshardReport struct {
	// From and To are the active shard counts before and after.
	From, To int
	// RowsMigrated counts row versions relocated into the new window by
	// the migration pass (rows concurrently deleted or relocated by their
	// own updates are not counted).
	RowsMigrated int
	// Wall is the end-to-end duration; SealWall the write-lock barrier
	// that quiesced old-map writes; CutoverWall the final atomic
	// publish step.
	Wall, SealWall, CutoverWall time.Duration
	// Version is the shard-map version after cutover (it advanced twice:
	// begin and cutover).
	Version uint64
	// CutoverEpoch is the epoch stamped on the cutover op.
	CutoverEpoch uint64
}

// Reshard changes the active shard count to n, online.  Reads at any epoch
// are unaffected throughout; writes keep flowing (they re-route through
// the new map, see package comment).  Reshards are serialized with each
// other; Reshard(current count) is a no-op.
//
// Cancelling ctx stops the migration pass early but still cuts over: the
// table stays fully consistent, with not-yet-migrated rows remaining
// readable (and updatable) in their sealed partitions until a later
// Reshard or their own updates drain them.  ctx.Err() is returned so the
// caller knows the drain is incomplete.
func (st *Table) Reshard(ctx context.Context, n int) (ReshardReport, error) {
	st.reshardMu.Lock()
	defer st.reshardMu.Unlock()

	m := st.load()
	from := len(m.active().parts)
	if n == from && !m.migrating {
		return ReshardReport{From: from, To: n, Version: m.version}, nil
	}
	if n < 1 || n > MaxShards || m.next()+n > MaxShards {
		return ReshardReport{}, fmt.Errorf("%w: reshard to %d (next partition %d)",
			ErrNoShards, n, m.next())
	}

	start := time.Now()
	rep := ReshardReport{From: from, To: n}
	old := st.Partitions() // m's: only reshardMu's holders publish maps

	// Phase 1a: create and fully wire the new partitions before anything
	// is published or logged, so failure here leaves the table untouched.
	newBase := m.next()
	fresh, olog, err := st.newPartitions(newBase, n)
	if err != nil {
		return ReshardReport{}, err
	}

	// Phase 1b: announce, publish the migrating map, seal.
	if olog != nil {
		olog.Append([]oplog.Rec{{
			Kind: oplog.KindReshardBegin, Shard: uint32(newBase),
			ID: uint64(n), ID2: m.version + 1,
		}})
	}
	mig := m.begin(fresh, m.version+1)
	st.smap.Store(mig)
	sealStart := time.Now()
	for _, s := range old {
		s.Seal()
	}
	rep.SealWall = time.Since(sealStart)

	// Phase 2: drain every sealed partition (including partitions an
	// earlier cancelled reshard left partially drained) into the new
	// window.
	var migErr error
drain:
	for _, p := range old {
		for _, local := range p.RowIDs() {
			if ctx.Err() != nil {
				migErr = ctx.Err()
				break drain
			}
			if !p.IsValid(local) {
				continue
			}
			values, err := p.Row(local)
			if err != nil {
				continue // reclaimed between RowIDs and here
			}
			dst, err := st.routeFor(mig, values[st.keyIdx])
			if err != nil {
				migErr = err
				break drain
			}
			if _, err := table.MoveRow(p, local, mig.part(dst), values); err != nil {
				if errors.Is(err, table.ErrRowInvalid) {
					continue // claimed by a concurrent update or delete
				}
				migErr = err
				break drain
			}
			rep.RowsMigrated++
		}
	}

	// Phase 3: cutover.  Even after a migration error the cutover
	// publishes — the table is consistent either way, the drain is just
	// incomplete (see Reshard doc).
	cutStart := time.Now()
	var cutoverEpoch uint64
	if olog != nil {
		cutoverEpoch = olog.Append([]oplog.Rec{{
			Kind: oplog.KindReshardCutover, Shard: uint32(newBase),
			ID: uint64(n), ID2: m.version + 2,
		}})
	} else {
		cutoverEpoch = st.clock.Now()
	}
	st.smap.Store(mig.cutover(m.version + 2))
	rep.CutoverWall = time.Since(cutStart)
	rep.Wall = time.Since(start)
	rep.Version = m.version + 2
	rep.CutoverEpoch = cutoverEpoch
	return rep, migErr
}

// newPartitions creates n partitions with physical indices base, base+1,
// ... wired like the existing ones — attached to the op log (returned, nil
// when unattached), with the store's indexes and merge observer (merged) —
// and publishes nothing.  The caller holds reshardMu or owns the store.
func (st *Table) newPartitions(base, n int) ([]*table.Table, *oplog.Log, error) {
	st.mu.Lock()
	olog := st.olog
	indexCols := append([]string(nil), st.indexCols...)
	st.mu.Unlock()

	fresh := make([]*table.Table, n)
	for i := range fresh {
		phys := base + i
		s, err := table.NewWithClock(fmt.Sprintf("%s/%d", st.name, phys), st.schema, st.clock)
		if err != nil {
			return nil, nil, err
		}
		if olog != nil {
			if err := s.AttachOplog(olog, phys); err != nil {
				return nil, nil, err
			}
		}
		for _, col := range indexCols {
			if err := s.CreateIndex(col); err != nil {
				return nil, nil, err
			}
		}
		s.OnMerge(st.merged)
		fresh[i] = s
	}
	return fresh, olog, nil
}

// ApplyReshardBegin replays a KindReshardBegin op on a replication
// follower: n partitions are created from physical index base on, routing
// switches to them, and the old partitions are sealed — mirroring the
// primary's phase 1 so that subsequent replayed ops find their target
// partitions.  Idempotent: a begin at or below the current map version is
// skipped (re-delivery after reconnect).
func (st *Table) ApplyReshardBegin(base, n int, version uint64) error {
	st.reshardMu.Lock()
	defer st.reshardMu.Unlock()

	m := st.load()
	if version <= m.version {
		return nil
	}
	if base != m.next() || n < 1 || base+n > MaxShards {
		return fmt.Errorf("%w: reshard-begin base %d count %d, next partition %d",
			table.ErrReplayGap, base, n, m.next())
	}
	fresh, _, err := st.newPartitions(base, n)
	if err != nil {
		return err
	}
	old := st.Partitions()
	st.smap.Store(m.begin(fresh, version))
	for _, s := range old {
		s.Seal()
	}
	return nil
}

// ApplyReshardCutover replays a KindReshardCutover op on a follower,
// publishing the post-reshard routing.  Idempotent by map version; a
// store loaded from a mid-reshard save already holds the cutover's map
// (PersistTopology), and the cutover at its version ends its wait.
func (st *Table) ApplyReshardCutover(base, n int, version uint64) error {
	st.reshardMu.Lock()
	defer st.reshardMu.Unlock()

	m := st.load()
	if m.awaiting && version == m.version {
		st.smap.Store(m.cutover(version))
		return nil
	}
	if version <= m.version {
		return nil
	}
	if w := m.writeWindow(); !m.migrating || w.base != base || len(w.parts) != n || version != m.version+1 {
		return fmt.Errorf("%w: reshard-cutover base %d count %d version %d (map version %d, migrating %v)",
			table.ErrReplayGap, base, n, version, m.version, m.migrating)
	}
	st.smap.Store(m.cutover(version))
	return nil
}

// ReplayPartition returns the partition a replayed op names, nil for a
// hole (skip the op: a window leaves only sealed, past its cutover and
// empty, so what the op wrote was later moved, and the move replays in the
// same tail, or reclaimed), or ErrReplayGap beyond the last window.
func (st *Table) ReplayPartition(phys int) (*table.Table, error) {
	m := st.load()
	if phys >= m.next() {
		return nil, fmt.Errorf("%w: partition %d, next partition %d", table.ErrReplayGap, phys, m.next())
	}
	return m.part(phys), nil
}

// begin returns the migrating map of a reshard into the fresh partitions:
// m's windows, then fresh as the window writes route to.
func (m *shardMap) begin(fresh []*table.Table, version uint64) *shardMap {
	return &shardMap{
		version:   version,
		windows:   append(append([]window(nil), m.windows...), window{m.next(), fresh}),
		migrating: true,
		awaiting:  m.awaiting,
	}
}

// cutover returns the map after a reshard's cutover: the migration target
// becomes the active window, and the sealed windows garbage collection has
// drained leave the store (pruned).
func (m *shardMap) cutover(version uint64) *shardMap {
	return (&shardMap{version: version, windows: m.windows}).pruned()
}

// PersistTopology returns the store's partitions in physical order and the
// topology a snapshot records.  A mid-reshard map is normalized to its
// post-cutover form, at the cutover's version: unmigrated rows stay in
// sealed partitions, as after a cancelled Reshard.  MidReshard marks it:
// an old-map write can land in a sealed partition after its capture, so
// the loaded store prunes nothing until it applies the cutover.
func (st *Table) PersistTopology() ([]*table.Table, Topology) {
	m := st.load()
	top := Topology{Version: m.version, MidReshard: m.migrating || m.awaiting}
	if m.migrating {
		top.Version++
	}
	var parts []*table.Table
	for _, w := range m.windows {
		top.Windows = append(top.Windows, Span{w.base, len(w.parts)})
		parts = append(parts, w.parts...)
	}
	return parts, top
}
