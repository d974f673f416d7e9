package table

import (
	"fmt"

	"hyrise/internal/epoch"
	"hyrise/internal/oplog"
)

// View is a read epoch: a read through it at epoch E sees exactly the row
// versions with begin <= E < end, regardless of later updates, deletes or
// merges (merges never renumber rows or change row content), or it fails
// with ErrReclaimed.  Views are plain values, cheap to copy.
//
// A view captured with Snapshot pins its epoch on the store's clock:
// garbage-collecting merges never reclaim a version the view can see, so
// its reads never fail while the pin is held.  Release the view when done
// reading — an unreleased view holds the GC watermark down and keeps dead
// versions alive indefinitely.  Copies of a view share one pin; releasing
// any copy releases them all.  The zero View (latest) and explicit ViewAt
// views carry no pin, and Release on them is a no-op.
//
// A view with no live pin — a ViewAt view, or a snapshot after Release —
// reads exactly as long as its epoch is at or above the partition's GC
// watermark (the clock reading at the freeze of the last merge that
// reclaimed a version); below it, versions it could see may be gone, and
// every read fails with ErrReclaimed: Read and ScanAt return it,
// VisibleAt too, and ValidRowsAt panics with it.  The check runs under
// the read lock that reclamation's commit excludes, so it is exact.
//
// The zero View reads latest (current versions only), as do the read
// methods without an At suffix; it never fails this way.
type View struct {
	epoch uint64 // 0 = latest
	pin   *epoch.Pin
}

// Latest returns the view that always reads current versions.
func Latest() View { return View{} }

// ViewAt returns an unpinned view at an explicit epoch.  It holds no
// version against GC: its reads fail with ErrReclaimed once a reclaiming
// merge's watermark passes e (see View).
func ViewAt(e uint64) View { return View{epoch: e} }

// Epoch returns the captured epoch, or epoch.Latest for a latest view.
func (v View) Epoch() uint64 { return v.resolve() }

// IsLatest reports whether this is the zero (latest) view.  A latest read
// that spans several lock holds — a read fanned out over partitions — uses
// it to swap in a short-lived pinned snapshot, so every step reads one
// epoch and no GC merge reclaims a row between them.  A read under one
// lock hold (every Table.Read) needs no pin.
func (v View) IsLatest() bool { return v.epoch == 0 }

// Release drops the view's GC pin, letting garbage collection reclaim the
// history the view could see.  The view stays readable until a reclaiming
// merge's watermark passes its epoch; from then on its reads fail with
// ErrReclaimed.  Release is idempotent and a no-op on unpinned views.
func (v View) Release() { v.pin.Release() }

// PinnedView captures and pins a read view directly on a clock.  The store
// uses it so its cross-shard snapshot pins the shared clock exactly like a
// partition's Snapshot does.
func PinnedView(c *epoch.Clock) View {
	e, pin := c.CapturePinned()
	return View{epoch: e, pin: pin}
}

// PinnedViewAt pins an explicit epoch on a clock and returns a view at it.
// A replication follower's server uses it to pin its applied epoch.  The
// pin only prevents future reclamation; the caller must verify the epoch's
// history is still intact — every partition's GCBound must be <= e — and
// Release the view if not.
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
// visible to no view, and a view the GC has passed fails with ErrReclaimed.
func (t *Table) VisibleAt(v View, row int) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkView(v); err != nil {
		return false, err
	}
	slot, err := t.slotFor(row)
	return err == nil && t.epochs.VisibleAt(slot, v.resolve()), nil
}

// checkView fails a view whose versions a reclaiming merge may have
// dropped: one without a live pin below the committed GC watermark (t.mu
// held).  Release flags a pin before it leaves the registry, so a pin not
// flagged here was in every freeze's pin set since its capture.
func (t *Table) checkView(v View) error {
	if v.epoch == 0 || v.epoch >= t.gcWatermark || v.pin != nil && !v.pin.Released() {
		return nil
	}
	return fmt.Errorf("%w: epoch %d is below the GC watermark %d", ErrReclaimed, v.epoch, t.gcWatermark)
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
	return dst.insertLocked(values, at), nil
}

// RowEpochs returns flat copies of every stored version's begin and end
// epochs in slot order, a main row's end expanded from the dead bitmap and
// its exception (0 while current).
func (t *Table) RowEpochs() (begin, end []uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epochs.Snapshot()
}

// RowIDs returns a copy of the stable id of every physical row in slot
// order.
func (t *Table) RowIDs() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]int(nil), t.ids...)
}
