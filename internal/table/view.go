package table

import (
	"fmt"

	"hyrise/internal/epoch"
	"hyrise/internal/oplog"
)

// View is a frozen read epoch: reads filtered through it see exactly the
// rows current at the captured epoch, regardless of later updates, deletes
// or merges (merges never renumber rows or change row content, so an
// in-flight view stays readable across merge commits).  Views are plain
// values — cheap to copy, valid for the life of the store.
//
// A view captured with Snapshot additionally pins its epoch on the store's
// clock: garbage-collecting merges never reclaim a version the view can
// see.  Release the view when done reading — an unreleased view holds the
// GC watermark down and keeps dead versions alive indefinitely.  Copies of
// a view share one pin; releasing any copy releases them all.  The zero
// View (latest) and explicit ViewAt views carry no pin: Release on them is
// a no-op, and a ViewAt view at an old epoch may lose rows to GC.
//
// The zero View reads latest (current versions only), as do the read
// methods without an At suffix.
type View struct {
	epoch uint64 // 0 = latest
	pin   *epoch.Pin
}

// Latest returns the view that always reads current versions.
func Latest() View { return View{} }

// ViewAt returns an unpinned view at an explicit epoch (tests, tooling).
// Unpinned views do not hold the GC watermark: rows invalidated at or
// below the watermark may be reclaimed out from under them.
func ViewAt(e uint64) View { return View{epoch: e} }

// Epoch returns the captured epoch, or epoch.Latest for a latest view.
func (v View) Epoch() uint64 { return v.resolve() }

// IsLatest reports whether this is the zero (latest) view.  Multi-step
// latest reads use it to swap in a short-lived pinned snapshot, so a GC
// merge committing between their steps cannot reclaim rows mid-read.
func (v View) IsLatest() bool { return v.epoch == 0 }

// Release drops the view's GC pin, letting garbage collection reclaim the
// history the view could see.  The view remains readable — it just no
// longer guarantees its rows survive the next merge.  Release is
// idempotent and a no-op on unpinned views.
func (v View) Release() { v.pin.Release() }

// PinnedView captures and pins a read view directly on a clock.  The store
// uses it so its cross-shard snapshot pins the shared clock exactly like a
// partition's Snapshot does.
func PinnedView(c *epoch.Clock) View {
	e, pin := c.CapturePinned()
	return View{epoch: e, pin: pin}
}

// PinnedViewAt pins an explicit epoch on a clock and returns a view at it.
// The server uses it to serve reads at a client-chosen epoch on a
// replication follower.  The pin only prevents future reclamation; the
// caller must verify the epoch's history is still intact — every
// partition's GCBound must be <= e — and Release the view if not.
func PinnedViewAt(c *epoch.Clock, e uint64) View {
	return View{epoch: e, pin: c.PinAt(e)}
}

// resolve maps the zero view to the Latest sentinel.
func (v View) resolve() uint64 {
	if v.epoch == 0 {
		return epoch.Latest
	}
	return v.epoch
}

// Snapshot captures the current epoch as a consistent read view and pins
// it against garbage collection.  The capture is one atomic fetch-add on
// the table's clock plus a pin registration — no coordination with
// writers: every mutation stamped at or below the captured epoch is
// included, every later mutation excluded, and because mutations read
// their stamp while holding every lock they write under, inclusion is
// all-or-nothing per mutation.  Call Release on the view when done with it
// so the GC watermark can advance.
func (t *Table) Snapshot() View {
	e, pin := t.clock.CapturePinned()
	return View{epoch: e, pin: pin}
}

// VisibleAt reports whether the row exists and is visible at the view's
// epoch.  It is IsValid generalized to snapshots; reclaimed rows are
// visible to no view.
func (t *Table) VisibleAt(v View, row int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slot, err := t.slotFor(row)
	return err == nil && t.epochs.VisibleAt(slot, v.resolve())
}

// MoveRow atomically relocates a row version between two tables sharing
// one epoch clock: it invalidates src's row and inserts values into dst
// under BOTH table locks with a single epoch stamp, so any snapshot sees
// exactly one of the two versions — never both, never neither.  The
// store uses it for key-changing updates that cross shards.
//
// Locks are acquired in creation order (lockID), keeping concurrent moves
// in opposite directions deadlock-free.  values must already be validated
// and converted for dst's schema.
func MoveRow(src *Table, row int, dst *Table, values []any) (int, error) {
	if src == dst {
		return 0, fmt.Errorf("table: MoveRow within one table (use Update)")
	}
	if src.clock != dst.clock {
		return 0, fmt.Errorf("table: MoveRow across tables with different epoch clocks")
	}
	if len(values) != len(dst.cols) {
		return 0, fmt.Errorf("%w: got %d want %d", ErrArity, len(values), len(dst.cols))
	}
	for i, v := range values {
		if err := dst.cols[i].checkValue(v); err != nil {
			return 0, err
		}
	}
	first, second := src, dst
	if second.lockID < first.lockID {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	// A sealed source still releases rows (that is how resharding drains
	// it); a sealed destination must not gain any.
	if dst.sealed {
		return 0, ErrSealed
	}
	slot, err := src.slotFor(row)
	if err != nil {
		return 0, err
	}
	if !src.epochs.Alive(slot) {
		return 0, fmt.Errorf("%w: %d", ErrRowInvalid, row)
	}
	at := src.clock.Now()
	if src.olog != nil {
		// Both tables share the log (AttachOplog fans out over one store),
		// so one op with one stamp carries the whole move.
		at = src.olog.Append([]oplog.Rec{{
			Kind: oplog.KindMove, Shard: src.oshard, Dst: dst.oshard,
			ID: uint64(row), ID2: uint64(dst.nextID),
			Rows: [][]any{dst.logRow(values)},
		}})
	}
	src.epochs.Invalidate(slot, at)
	src.dead++
	return dst.insertLocked(values, at), nil
}

// RowEpochs returns copies of the per-row begin/end epoch columns (the
// snapshot writer persists them).
func (t *Table) RowEpochs() (begin, end []uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epochs.Snapshot()
}

// RestoreRowEpochs overwrites the per-row epochs with persisted values;
// both slices must cover exactly the current row count.  The snapshot
// loader rebuilds rows by re-insertion (stamping load-time epochs) and
// then restores the saved history with this.
func (t *Table) RestoreRowEpochs(begin, end []uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.epochs.Restore(begin, end) {
		return fmt.Errorf("table: epoch restore length %d/%d, want %d rows",
			len(begin), len(end), t.rows)
	}
	// The restored ends replace whatever invalidations the rebuild
	// applied; recount the dead-version tally GC's fast path relies on.
	t.dead = t.rows - t.epochs.CountAlive()
	return nil
}

// RowIDs returns a copy of the stable id of every physical row in slot
// order (the snapshot writer persists it alongside the epochs).
func (t *Table) RowIDs() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]int(nil), t.ids...)
}

// PersistState is the row-set metadata the snapshot writer records; see
// Table.PersistState.
type PersistState struct {
	IDs        []int    // stable id of every physical row, in slot order
	Begin, End []uint64 // per-slot visibility epochs
	NextID     int
	Retired    int
	Reclaimed  int // estimated bytes reclaimed by GC
	Watermark  uint64
}

// PersistState captures everything the snapshot writer needs about the row
// set under one lock acquisition, so ids and epochs are mutually
// consistent.  Values should then be read per stable id (Handle.Get); a
// garbage-collecting merge committing between the capture and those reads
// surfaces as ErrRowInvalid, failing the save cleanly rather than writing
// a torn snapshot.
func (t *Table) PersistState() PersistState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	begin, end := t.epochs.Snapshot()
	return PersistState{
		IDs:       append([]int(nil), t.ids...),
		Begin:     begin,
		End:       end,
		NextID:    t.nextID,
		Retired:   t.retired,
		Reclaimed: t.reclaimed,
		Watermark: t.gcWatermark,
	}
}

// RestoreRowIDs overwrites the stable-id assignment and GC counters with
// persisted values: ids must hold one strictly increasing, non-negative id
// per current physical row, all below nextID.  The snapshot loader rebuilds
// rows by re-insertion (which assigns dense ids) and then restores the
// saved id map with this, so ids retired before the save stay retired.
func (t *Table) RestoreRowIDs(ids []int, nextID, retired, reclaimedBytes int, watermark uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(ids) != t.rows {
		return fmt.Errorf("table: id restore length %d, want %d rows", len(ids), t.rows)
	}
	prev := -1
	for _, id := range ids {
		if id <= prev || id >= nextID {
			return fmt.Errorf("table: id restore: bad id %d (prev %d, nextID %d)", id, prev, nextID)
		}
		prev = id
	}
	t.ids = append(t.ids[:0], ids...)
	t.nextID = nextID
	t.retired = retired
	t.reclaimed = reclaimedBytes
	t.gcWatermark = watermark
	return nil
}
