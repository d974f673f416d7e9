package table

import (
	"errors"
	"fmt"

	"hyrise/internal/oplog"
)

// This file is the table side of replication: attaching the primary's op
// log to the write path, and the Apply* methods a follower's replica
// applier uses to replay ops with their original epoch stamps, rebuilding
// bit-identical row ids and begin/end epochs.

// ErrReplayGap reports an op stream inconsistent with the table's state —
// an op that creates a row id the table is not at, or mutates a version it
// never had.  The follower's only recovery is a fresh bootstrap.
var ErrReplayGap = errors.New("table: op replay gap")

// maxOpRows caps the rows carried by a single insert op so one giant batch
// cannot produce an op larger than a wire frame.
const maxOpRows = 1024

// AttachOplog connects the table's write path to a replication log: every
// subsequent mutation records its op and takes its epoch stamp from the
// append (oplog.Log.Append reads the clock under the log mutex, which
// totally orders the log).  The log must be driven by the table's own
// clock; shard is the partition index recorded in each op.  Attach before
// serving writes — mutations that ran unlogged are invisible to followers.
func (t *Table) AttachOplog(l *oplog.Log, shard int) error {
	if l.Clock() != t.clock {
		return errors.New("table: op log is stamped by a different clock")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.olog = l
	t.oshard = uint32(shard)
	return nil
}

// logRow converts a validated row to its canonical storage types (uint32,
// uint64, string) for the op log, so the op encodes on the wire as-is and
// replays into identical column data no matter what convertible Go types
// the writer passed.
func (t *Table) logRow(values []any) []any {
	out := make([]any, len(values))
	for i, v := range values {
		cv, err := Convert(t.schema[i].Type, v)
		if err != nil {
			// The caller validated values against the schema already.
			panic(fmt.Sprintf("table: unvalidated value reached the op log: %v", err))
		}
		out[i] = cv
	}
	return out
}

// insertRecs builds the insert op records for a validated batch, split at
// maxOpRows; ids are assigned consecutively from nextID (t.mu held).
func (t *Table) insertRecs(rows [][]any) []oplog.Rec {
	recs := make([]oplog.Rec, 0, (len(rows)+maxOpRows-1)/maxOpRows)
	id := uint64(t.nextID)
	for len(rows) > 0 {
		n := min(len(rows), maxOpRows)
		lr := make([][]any, n)
		for i := range n {
			lr[i] = t.logRow(rows[i])
		}
		recs = append(recs, oplog.Rec{Kind: oplog.KindInsert, Shard: t.oshard, ID: id, Rows: lr})
		id += uint64(n)
		rows = rows[n:]
	}
	return recs
}

// GCBound returns the upper bound of reclaimed history: the highest
// watermark a committed garbage-collecting merge applied or — while a
// merge that intends to reclaim is in flight — that merge's watermark if
// higher.  A view pinned at an epoch >= GCBound sees complete history;
// below it, versions may already be gone.  The in-flight mark is set at
// merge freeze and cleared at commit/abort, both under t.mu, so the
// intent is never invisible between freeze and commit: a PinAt followed by
// a GCBound check races with no reclamation.
func (t *Table) GCBound() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.gcMark > t.gcWatermark {
		return t.gcMark
	}
	return t.gcWatermark
}

// checkStamp refuses a replayed row stamped below the partition's last
// begin epoch, which would break begin's order in slots (t.mu held).
func (t *Table) checkStamp(at uint64) error {
	if last := t.epochs.LastBegin(); at < last {
		return fmt.Errorf("%w: row stamped %d after one stamped %d", ErrReplayGap, at, last)
	}
	return nil
}

// checkDeath refuses a replayed invalidation stamped below the partition's
// last main death, which would break the exceptions' order by end (t.mu
// held; epoch.Rows.Invalidate).
func (t *Table) checkDeath(at uint64) error {
	if last := t.epochs.LastDeath(); at < last {
		return fmt.Errorf("%w: invalidation stamped %d after one stamped %d", ErrReplayGap, at, last)
	}
	return nil
}

// ApplyInsert replays an insert op — or the insert side of a move op: rows
// become stable ids firstID, firstID+1, ... stamped as inserted at epoch
// at.  Rows the table already has (ids below NextRowID, from a snapshot
// that overlapped the log tail) are skipped, so replay is idempotent; a
// firstID beyond NextRowID, or a stamp below the last row's begin epoch, is
// an ErrReplayGap and leaves the table unchanged.
func (t *Table) ApplyInsert(firstID uint64, rows [][]any, at uint64) error {
	for _, values := range rows {
		if err := t.CheckRow(values); err != nil {
			return err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	next := uint64(t.nextID)
	if firstID > next {
		return fmt.Errorf("%w: insert creates id %d, next is %d", ErrReplayGap, firstID, next)
	}
	skip := next - firstID
	if skip >= uint64(len(rows)) {
		return nil
	}
	if err := t.checkStamp(at); err != nil {
		return err
	}
	for _, values := range rows[skip:] {
		t.insertLocked(values, at)
	}
	return nil
}

// ApplyUpdate replays an update op: version oldID is invalidated and
// values appended as version newID, both stamped at — the version switch
// is atomic exactly as on the primary.  An update whose new version the
// table already has is skipped whole (idempotence); anything else
// inconsistent, a stamp below the last row's begin epoch or below the last
// main death's included, is an ErrReplayGap and leaves the table
// unchanged.
func (t *Table) ApplyUpdate(oldID, newID uint64, values []any, at uint64) error {
	if err := t.CheckRow(values); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	next := uint64(t.nextID)
	if newID < next {
		return nil
	}
	if newID > next {
		return fmt.Errorf("%w: update creates id %d, next is %d", ErrReplayGap, newID, next)
	}
	slot, err := t.slotFor(int(oldID))
	if err != nil {
		return fmt.Errorf("%w: update of id %d: %v", ErrReplayGap, oldID, err)
	}
	if !t.epochs.Alive(slot) {
		return fmt.Errorf("%w: update of already-dead id %d", ErrReplayGap, oldID)
	}
	if err := t.checkStamp(at); err != nil {
		return err
	}
	if err := t.checkDeath(at); err != nil {
		return err
	}
	t.epochs.Invalidate(slot, at)
	t.insertLocked(values, at)
	return nil
}

// ApplyInvalidate replays the invalidation side of a delete or move op:
// version id is stamped dead at epoch at.  A version already dead — or
// already reclaimed by the follower's own GC — is skipped (idempotence); a
// version the table never had, or a stamp below the last main death's, is
// an ErrReplayGap and leaves the table unchanged.
func (t *Table) ApplyInvalidate(id uint64, at uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id >= uint64(t.nextID) {
		return fmt.Errorf("%w: invalidate of unknown id %d, next is %d", ErrReplayGap, id, t.nextID)
	}
	slot, err := t.slotFor(int(id))
	if err != nil || !t.epochs.Alive(slot) {
		return nil // retired by this follower's own GC, or already dead
	}
	if err := t.checkDeath(at); err != nil {
		return err
	}
	t.epochs.Invalidate(slot, at)
	return nil
}
