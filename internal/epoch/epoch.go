// Package epoch implements the multi-version visibility substrate for
// snapshot reads: a shared monotonic epoch clock plus per-row begin/end
// epoch columns.
//
// The insert-only protocol of the paper (§3) — an UPDATE appends a new row
// version and invalidates the old one, a DELETE only invalidates — already
// stores every version; epochs make the version history navigable.  Each
// row records the epoch it became visible (begin) and the epoch it was
// invalidated (end, 0 while it is the current version).  A row is visible
// to a snapshot at epoch E iff
//
//	begin <= E && (end == 0 || end > E)
//
// The clock only advances when a snapshot is captured (Capture is one
// atomic fetch-add), so all mutations between two captures share an epoch
// and the common write path pays a single atomic load.  Larson et al.
// (VLDB 2011) and Faleiro & Abadi (VLDB 2014) use the same begin/end
// timestamp shape to keep readers out of writers' way in main-memory
// stores.
//
// Concurrency contract: Clock methods are safe for unsynchronized use.
// Rows methods are NOT internally synchronized — the owning table guards
// them with the same mutex that guards its column data, and every mutation
// must read its stamp (Clock.Now) while holding all locks it writes under.
// That protocol makes each mutation atomic with respect to any capture:
// the set "rows stamped <= E" is causally consistent for every captured E.
package epoch

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Latest is the sentinel read epoch that sees exactly the current versions
// (end == 0).  Real epochs are far below it: the clock starts at 1 and
// advances once per capture.
const Latest uint64 = math.MaxUint64

// Clock is a shared monotonic epoch counter.  One clock serves a whole
// store: its shards share it, so a single capture freezes every shard at
// the same epoch.
//
// The clock doubles as the garbage-collection pin registry: CapturePinned
// registers the captured epoch as live, and Watermark reports the highest
// epoch at or below which invalidated versions may be reclaimed — the
// minimum pinned epoch, or the current epoch when nothing is pinned.
// Because the registry lives on the clock, pins are store-wide: one pin
// protects history on every shard sharing the clock.
type Clock struct {
	cur atomic.Uint64

	pinMu sync.Mutex
	pins  map[*Pin]struct{}
}

// NewClock returns a clock at epoch 1.
func NewClock() *Clock {
	c := &Clock{}
	c.cur.Store(1)
	return c
}

// Now returns the current epoch, the stamp mutations write.
func (c *Clock) Now() uint64 { return c.cur.Load() }

// Capture atomically closes the current epoch and returns it as a read
// epoch: every mutation stamped at or below the returned value is part of
// the snapshot, every later mutation stamps a higher epoch.
func (c *Clock) Capture() uint64 { return c.cur.Add(1) - 1 }

// AdvanceTo moves the clock forward to at least e (never backward); the
// snapshot loader uses it to resume a persisted clock.
func (c *Clock) AdvanceTo(e uint64) {
	for {
		cur := c.cur.Load()
		if cur >= e || c.cur.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Pin is a registered live read epoch.  While a pin is held, no version
// whose end epoch is at or above the pinned epoch is reclaimed, so reads at
// that epoch keep seeing their full row set.  Release it when the reader is
// done; Release is idempotent and safe for concurrent use.
type Pin struct {
	c     *Clock
	epoch uint64
}

// Epoch returns the pinned read epoch.
func (p *Pin) Epoch() uint64 { return p.epoch }

// Release unregisters the pin, letting the watermark advance past it.
func (p *Pin) Release() {
	if p == nil {
		return
	}
	p.c.pinMu.Lock()
	delete(p.c.pins, p)
	p.c.pinMu.Unlock()
}

// CapturePinned captures a read epoch (exactly like Capture) and registers
// it as pinned.  Registering under the pin mutex makes the capture and the
// registration atomic with respect to Watermark: a reclaim decision either
// sees the pin, or ran before the capture — and versions reclaimed before
// the capture (end <= W <= E) were invisible at the captured epoch anyway,
// so a pinned view can never lose rows it could see.
func (c *Clock) CapturePinned() (uint64, *Pin) {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	e := c.Capture()
	p := &Pin{c: c, epoch: e}
	if c.pins == nil {
		c.pins = make(map[*Pin]struct{})
	}
	c.pins[p] = struct{}{}
	return e, p
}

// PinAt registers a pin at an arbitrary epoch without capturing: the clock
// does not advance and e may lie in the past.  Replication followers use it
// to serve reads at their applied epoch, and the server uses it to pin a
// client-chosen epoch on a follower.  Unlike CapturePinned it cannot
// promise the epoch's history is still intact — versions invalidated at or
// below a past GC watermark may already be gone — so callers must check
// the store's GC bound (table.Table.GCBound) after pinning and release the
// pin if the bound has passed e.
func (c *Clock) PinAt(e uint64) *Pin {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	p := &Pin{c: c, epoch: e}
	if c.pins == nil {
		c.pins = make(map[*Pin]struct{})
	}
	c.pins[p] = struct{}{}
	return p
}

// Pins returns the number of currently registered pins.
func (c *Clock) Pins() int {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	return len(c.pins)
}

// Watermark returns the garbage-collection watermark W: versions with
// end != 0 && end <= W are invisible to every pinned view and to every
// capture that has not happened yet, so they may be reclaimed.  W is the
// minimum pinned epoch when pins exist, the current epoch otherwise (a
// version with end == Now() is already invisible to the next capture,
// which returns Now() and requires end > E for visibility).
func (c *Clock) Watermark() uint64 {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	w := c.Now()
	for p := range c.pins {
		if p.epoch < w {
			w = p.epoch
		}
	}
	return w
}

// PinSet is a point-in-time copy of the live pin registry plus the epoch
// the clock stood at when the copy was taken.  It drives precise per-pin
// retention: instead of collapsing all pins into a single min-pin
// watermark, a reclaim decision tests each dead version's [begin, end)
// validity interval against the individual pinned epochs, so a version
// invalidated after an old pin — and therefore never visible to it — is
// reclaimable even while that old pin stays registered.
//
// The copy is consistent (taken under the pin mutex) but immediately
// stale: pins registered after LivePins returns are not in the set.  That
// is safe for the GC protocol because new pins are either captures (whose
// epoch is >= now, protected by the now bound) or PinAt calls, which must
// check the table's GCBound after pinning.
type PinSet struct {
	epochs []uint64 // sorted ascending, one per live pin
	now    uint64   // clock reading at snapshot time
}

// LivePins snapshots the live pin registry and the current epoch into a
// PinSet for one reclaim pass.
func (c *Clock) LivePins() PinSet {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	ps := PinSet{now: c.Now()}
	if len(c.pins) > 0 {
		ps.epochs = make([]uint64, 0, len(c.pins))
		for p := range c.pins {
			ps.epochs = append(ps.epochs, p.epoch)
		}
		sort.Slice(ps.epochs, func(i, j int) bool { return ps.epochs[i] < ps.epochs[j] })
	}
	return ps
}

// Now returns the epoch the clock stood at when the set was snapshotted.
func (ps PinSet) Now() uint64 { return ps.now }

// Len returns the number of live pins in the set.
func (ps PinSet) Len() int { return len(ps.epochs) }

// Reclaimable reports whether a version with the given begin/end stamps is
// invisible to every live pin and to every future capture, and may
// therefore be reclaimed.  A version is visible at pinned epoch E iff
// begin <= E < end (end == 0 means current, never reclaimable), so the
// version is reclaimable iff it is dead, already invisible to the next
// capture (end <= now), and no pinned epoch falls inside [begin, end).
func (ps PinSet) Reclaimable(begin, end uint64) bool {
	if end == 0 || end > ps.now {
		return false
	}
	// Smallest pinned epoch >= begin; the version is visible to it iff it
	// is also < end.  Pins below begin predate the version and never saw
	// it; pins at or above end only saw its successors.
	i := sort.Search(len(ps.epochs), func(i int) bool { return ps.epochs[i] >= begin })
	return i == len(ps.epochs) || ps.epochs[i] >= end
}

// Rows holds the begin/end epoch columns of one table, indexed by row id.
// The zero value is an empty column pair.  Methods require external
// synchronization (the owning table's mutex).
type Rows struct {
	begin []uint64
	end   []uint64 // 0 = current version
}

// Len returns the number of stamped rows.
func (r *Rows) Len() int { return len(r.begin) }

// Append stamps a new row as inserted at epoch begin.
func (r *Rows) Append(begin uint64) {
	r.begin = append(r.begin, begin)
	r.end = append(r.end, 0)
}

// Begin returns row i's insertion epoch.
func (r *Rows) Begin(i int) uint64 { return r.begin[i] }

// End returns row i's invalidation epoch (0 while current).
func (r *Rows) End(i int) uint64 { return r.end[i] }

// Alive reports whether row i is the current version.
func (r *Rows) Alive(i int) bool { return r.end[i] == 0 }

// Invalidate stamps row i as invalidated at epoch end.
func (r *Rows) Invalidate(i int, end uint64) { r.end[i] = end }

// VisibleAt reports whether row i is visible to a snapshot at epoch e.
// With e == Latest this degenerates to Alive.
func (r *Rows) VisibleAt(i int, e uint64) bool {
	return r.begin[i] <= e && (r.end[i] == 0 || r.end[i] > e)
}

// Raw exposes the backing begin and end columns for batch kernels
// (internal/kernel).  The slices alias internal state: callers must hold
// the owning table's lock for the duration of use and must not mutate or
// retain them past the locked region.
func (r *Rows) Raw() (begin, end []uint64) { return r.begin, r.end }

// Compact removes the rows marked true in drop, which covers the first
// len(drop) rows; rows beyond len(drop) are kept unconditionally.  Survivor
// order is preserved, so a survivor's new index is its rank among kept
// rows.  It returns the number of rows removed.  The owning table uses it
// at merge commit to reclaim versions below the GC watermark.
func (r *Rows) Compact(drop []bool) int {
	drop = drop[:min(len(drop), len(r.begin))]
	w := 0
	for i, dropped := range drop {
		if !dropped {
			r.begin[w] = r.begin[i]
			r.end[w] = r.end[i]
			w++
		}
	}
	n := copy(r.begin[w:], r.begin[len(drop):])
	copy(r.end[w:], r.end[len(drop):])
	w += n
	removed := len(r.begin) - w
	r.begin = r.begin[:w]
	r.end = r.end[:w]
	return removed
}

// Snapshot returns copies of the begin and end columns (for persistence).
func (r *Rows) Snapshot() (begin, end []uint64) {
	begin = append([]uint64(nil), r.begin...)
	end = append([]uint64(nil), r.end...)
	return begin, end
}

// RowsOf wraps persisted begin and end columns, which must be equally long;
// the slices are retained, not copied.  Adopting a partition image installs
// its epochs with this.
func RowsOf(begin, end []uint64) Rows {
	if len(begin) != len(end) {
		panic("epoch: begin and end columns differ in length")
	}
	return Rows{begin: begin, end: end}
}

// SizeBytes returns the memory consumed by the epoch columns.
func (r *Rows) SizeBytes() int { return (len(r.begin) + len(r.end)) * 8 }
