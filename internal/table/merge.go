package table

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"hyrise/internal/core"
	"hyrise/internal/epoch"
	"hyrise/internal/par"
)

// MergeOptions configures Table.Merge.
type MergeOptions struct {
	// Threads is one merge's budget N_T of pieces (0 = GOMAXPROCS),
	// distributed per §6.2.1: with at least as many columns as threads,
	// scheme (i), a task queue over the columns, each merged serially by one
	// of Threads workers (the paper's reported scheme); with fewer columns,
	// scheme (ii), the columns one after another, each cut into Threads
	// pieces — the per-column Stats.Threads of the Report exceed 1 exactly
	// then.  Every layer passes it through unchanged: the pieces run through
	// the process's one pool (internal/par), which bounds all merges and
	// reads together, so concurrent merges of several partitions share the
	// cores without dividing the budget.
	Threads int
}

// MergeEach merges the given partitions of one store through par.Do, each
// with opts as given, and returns their reports and errors in input order.
// It is the one store-level fan-out: the store's RequestMerge and the
// scheduler's MergeNow both run through it.
func MergeEach(ctx context.Context, parts []*Table, opts MergeOptions) ([]Report, []error) {
	reps, errs := make([]Report, len(parts)), make([]error, len(parts))
	par.Do(len(parts), func(i int) { reps[i], errs[i] = parts[i].Merge(ctx, opts) })
	return reps, errs
}

// Report summarizes one table merge.
type Report struct {
	// Columns holds per-column merge statistics in schema order.
	Columns []core.Stats
	// RowsMerged is the delta tuple count folded into the main partitions.
	RowsMerged int
	// RowsReclaimed is the number of dead versions the merge dropped
	// instead of copying (0 with nothing reclaimable).  The
	// decision is per-pin precise: a version is dropped when its
	// [begin, end) validity interval contains no live pinned epoch and end
	// is at or below the freeze-time clock reading.
	RowsReclaimed int
	// GCWatermark is the reclamation floor the merge committed: the clock
	// reading at freeze (0 when RowsReclaimed is 0).  After the commit,
	// pinning a new epoch below it is unsafe — precise retention may have
	// reclaimed versions anywhere below the floor that no then-live pin
	// covered — so Table.GCBound ratchets to it.
	GCWatermark uint64
	// DeadAtFreeze is the number of stored dead versions when the freeze
	// decision ran (reclaimed + retained).
	DeadAtFreeze int
	// LivePins is the number of pins registered when the freeze decision
	// ran.
	LivePins int
	// MainRowsAfter is N'_M.
	MainRowsAfter int
	// Wall is the end-to-end merge duration including lock phases.
	Wall time.Duration
	// Freeze, MergeRun and Commit break Wall into the three phases of §3:
	// the write-locked delta freeze, the unlocked column merges, and the
	// write-locked install/promote (abort path included in Commit).
	Freeze   time.Duration
	MergeRun time.Duration
	Commit   time.Duration
	// Threads echoes the budget used.
	Threads int
	// Aborted is true when the merge was cancelled and rolled back.
	Aborted bool
}

// TotalStepTime sums a step selector over all columns.
func (r Report) TotalStepTime(sel func(core.Stats) time.Duration) time.Duration {
	var d time.Duration
	for _, s := range r.Columns {
		d += sel(s)
	}
	return d
}

// LastMergeReport returns the report of the most recently committed merge.
func (t *Table) LastMergeReport() Report {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lastMerge
}

// Merge runs the merge process for every column of the table (paper §3):
//
//  1. Briefly write-lock: freeze each column's delta and open second
//     deltas; concurrent inserts now accumulate there.
//  2. Unlocked: merge every column's main + frozen delta into pending
//     mains, parallelized across or within columns (MergeOptions.Threads).
//     Queries keep running against main + frozen delta + second delta.
//  3. Briefly write-lock: atomically install all pending mains and promote
//     the second deltas.
//
// If ctx is cancelled before commit, all work is discarded and the second
// deltas are folded back; the table is untouched (Report.Aborted = true).
// A second concurrent Merge returns ErrMergeInProgress.
func (t *Table) Merge(ctx context.Context, opts MergeOptions) (Report, error) {
	if !t.mergeMu.TryLock() {
		return Report{}, ErrMergeInProgress
	}
	defer t.mergeMu.Unlock()

	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}

	start := time.Now()

	// Phase 1: freeze (brief write lock).
	t.mu.Lock()
	if err := ctx.Err(); err != nil {
		t.mu.Unlock()
		return Report{Aborted: true}, err
	}
	t.merging = true
	rowsMerged := 0
	if len(t.cols) > 0 {
		rowsMerged = t.cols[0].deltaLen() // one delta per column here
	}
	// Decide what this merge reclaims while the freeze lock pins the row
	// set: a version is reclaimable when its [begin, end) validity interval
	// is invisible to every live pin and to every future capture
	// (epoch.PinSet.Reclaimable), so one old analytical pin retains only
	// the versions it can see, not every version invalidated after it.  The
	// decision visits the dead versions alone — the main's exceptions and
	// the delta's dead slots — never every main row — and records the pins
	// that keep one (MayReclaim waits for their release).  The drop covers
	// exactly the frozen main+delta slots; rows landing in the second delta
	// afterwards are beyond it and always kept.
	t.gcDrop, t.gcMark = core.Drop{}, 0
	deadAtFreeze := t.epochs.Dead()
	var livePins int
	var ahead uint64
	var held []*epoch.Pin
	if deadAtFreeze > 0 {
		ps := t.clock.LivePins()
		livePins = ps.Len()
		var pos []int
		t.epochs.EachDead(t.rows, func(slot int, begin, end uint64) {
			switch {
			case ps.Reclaimable(begin, end):
				pos = append(pos, slot)
			case end > ps.Now():
				if ahead == 0 || end < ahead {
					ahead = end
				}
			default:
				if p := ps.Retainer(begin, end); !slices.Contains(held, p) {
					held = append(held, p)
				}
			}
		})
		slices.Sort(pos)
		t.gcDrop = core.DropAt(pos, t.rows)
		if len(pos) > 0 {
			// The reclamation floor is the freeze-time clock reading, not
			// the min pin: precise retention may punch holes anywhere below
			// it that no live pin covered, so no later pin below the floor
			// can be trusted to see complete history.
			t.gcMark = ps.Now()
		}
	}
	drop := t.gcDrop
	for _, c := range t.cols {
		c.beginMerge()
	}
	t.mu.Unlock()
	frozen := time.Now()

	// Phase 2: merge columns against the frozen snapshot, no table lock.
	err := t.runColumnMerges(ctx, threads, drop)
	merged := time.Now()

	// Phase 3: commit or abort (brief write lock).
	t.mu.Lock()
	t.merging = false
	rep := Report{
		RowsMerged:   rowsMerged,
		Threads:      threads,
		Freeze:       frozen.Sub(start),
		MergeRun:     merged.Sub(frozen),
		DeadAtFreeze: deadAtFreeze,
		LivePins:     livePins,
	}
	if err != nil {
		for _, c := range t.cols {
			c.abortMerge()
		}
		t.gcDrop, t.gcMark = core.Drop{}, 0
		rep.Aborted = true
		rep.Commit = time.Since(merged)
		rep.Wall = time.Since(start)
		t.mu.Unlock()
		t.notifyMerge(rep)
		return rep, err
	}
	for _, c := range t.cols {
		c.commitMerge()
	}
	// The frozen delta's versions join the main: its dead ones become
	// exceptions and bits of the new main's bitmap, in the same pass that
	// closes the rows up behind the reclaimed slots.
	t.epochs.Fold(rowsMerged, t.gcDrop.Pos)
	if len(t.gcDrop.Pos) > 0 {
		rep.RowsReclaimed = t.compactRowsLocked()
		rep.GCWatermark = t.gcMark
		if t.gcMark > t.gcWatermark {
			t.gcWatermark = t.gcMark
		}
	}
	t.gcDrop, t.gcMark = core.Drop{}, 0
	t.gcHeld, t.gcAhead = held, ahead
	t.mergeGen++
	for _, c := range t.cols {
		rep.Columns = append(rep.Columns, c.mergeStats())
	}
	if len(t.cols) > 0 {
		rep.MainRowsAfter = t.cols[0].mainLen()
	}
	rep.Commit = time.Since(merged)
	rep.Wall = time.Since(start)
	t.lastMerge = rep
	t.mu.Unlock()
	t.notifyMerge(rep)
	return rep, nil
}

// notifyMerge delivers the report to the observer hook, if any.  It runs
// with no table lock held (but still inside mergeMu, so reports arrive in
// commit order); the hook must not call back into Merge.
func (t *Table) notifyMerge(rep Report) {
	if fn := t.mergeHook.Load(); fn != nil {
		fn.(func(Report))(rep)
	}
}

// runColumnMerges distributes the column merges over threads workers:
// within each column when there are fewer columns than threads, otherwise
// across columns through a task queue (§6.2.1; see MergeOptions.Threads).
// drop is the frozen GC decision shared by every column.
func (t *Table) runColumnMerges(ctx context.Context, threads int, drop core.Drop) error {
	if len(t.cols) < threads {
		opts := core.Options{Threads: threads}
		for _, c := range t.cols {
			if err := ctx.Err(); err != nil {
				return err
			}
			c.runMerge(opts, drop)
		}
		return nil
	}
	opts := core.Options{Threads: 1}
	// The queue is a shared cursor: each worker takes the next column until
	// none is left or ctx is cancelled.
	var next, merged atomic.Int64
	par.Do(threads, func(int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(t.cols) {
				return
			}
			t.cols[i].runMerge(opts, drop)
			merged.Add(1)
		}
	})
	if merged.Load() < int64(len(t.cols)) {
		return ctx.Err()
	}
	return nil
}

// compactRowsLocked applies the frozen GC decision to the stable ids at
// merge commit (t.mu write-held): reclaimed slots leave ids, which retires
// their stable ids, and the survivors — including rows that accumulated in
// the second delta during the merge, which lie beyond the drop — close up
// behind them in order.  Removal preserves order, so ids stays strictly
// ascending and no survivor needs re-indexing: the pass moves the runs
// between reclaimed slots, starting at the first one.  The columns were
// already rebuilt without the dropped rows by MergeColumnDrop and the
// epochs by Fold, so physical slots line up again when this returns.
func (t *Table) compactRowsLocked() int {
	pos := t.gcDrop.Pos
	w := pos[0]
	for k, p := range pos {
		next := len(t.ids)
		if k+1 < len(pos) {
			next = pos[k+1]
		}
		w += copy(t.ids[w:], t.ids[p+1:next])
	}
	t.ids = t.ids[:w]
	t.rows = w
	t.retired += len(pos)
	t.reclaimed += len(pos) * t.rowBytes
	return len(pos)
}
