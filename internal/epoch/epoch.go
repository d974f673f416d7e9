// Package epoch implements the multi-version visibility substrate for
// snapshot reads: a shared monotonic epoch clock plus the visibility of
// every stored row version.
//
// The insert-only protocol of the paper (§3) — an UPDATE appends a new row
// version and invalidates the old one, a DELETE only invalidates — already
// stores every version; epochs make the version history navigable.  Each
// version became visible at an epoch (begin) and was invalidated at one
// (end, 0 while it is the current version).  A version is visible to a
// snapshot at epoch E iff
//
//	begin <= E && (end == 0 || end > E)
//
// the rule Larson et al. (VLDB 2011) and Faleiro & Abadi (VLDB 2014) use to
// keep readers out of writers' way in main-memory stores.  Rows stores it
// in two shapes.  A delta slot keeps flat begin/end epochs.  The main keeps
// the paper's validity bit vector: a dead bitmap, one bit per main slot,
// plus a sparse exception list of (slot, end) for its dead slots, sorted by
// end.  Begin is non-decreasing in slot order, so the main slots with
// begin <= E are a prefix found by binary search; a latest read tests one
// bit per main row, and only a reader older than some death looks at the
// exceptions.
//
// The clock only advances when a snapshot is captured (Capture is one
// atomic fetch-add), so all mutations between two captures share an epoch
// and the common write path pays a single atomic load.
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
	c        *Clock
	epoch    uint64
	released atomic.Bool
}

// Epoch returns the pinned read epoch.
func (p *Pin) Epoch() uint64 { return p.epoch }

// Release unregisters the pin, letting the watermark advance past it.
func (p *Pin) Release() {
	if p == nil || p.released.Swap(true) {
		return
	}
	p.c.pinMu.Lock()
	delete(p.c.pins, p)
	p.c.pinMu.Unlock()
}

// Released reports whether Release has been called, in O(1) and without
// the pin registry's lock.
func (p *Pin) Released() bool { return p.released.Load() }

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
// does not advance and e may lie in the past.  A replication follower's
// server uses it to pin a snapshot at its applied epoch.  Unlike
// CapturePinned it cannot
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
	pins []*Pin // the live pins, ascending by epoch
	now  uint64 // clock reading at snapshot time
}

// LivePins snapshots the live pin registry and the current epoch into a
// PinSet for one reclaim pass.
func (c *Clock) LivePins() PinSet {
	c.pinMu.Lock()
	defer c.pinMu.Unlock()
	ps := PinSet{now: c.Now()}
	if len(c.pins) > 0 {
		ps.pins = make([]*Pin, 0, len(c.pins))
		for p := range c.pins {
			ps.pins = append(ps.pins, p)
		}
		sort.Slice(ps.pins, func(i, j int) bool { return ps.pins[i].epoch < ps.pins[j].epoch })
	}
	return ps
}

// Now returns the epoch the clock stood at when the set was snapshotted.
func (ps PinSet) Now() uint64 { return ps.now }

// Len returns the number of live pins in the set.
func (ps PinSet) Len() int { return len(ps.pins) }

// Reclaimable reports whether a version with the given begin/end stamps is
// invisible to every live pin and to every future capture, and may
// therefore be reclaimed.  A version is visible at pinned epoch E iff
// begin <= E < end (end == 0 means current, never reclaimable), so the
// version is reclaimable iff it is dead, already invisible to the next
// capture (end <= now), and no pinned epoch falls inside [begin, end).
func (ps PinSet) Reclaimable(begin, end uint64) bool {
	return end != 0 && end <= ps.now && ps.Retainer(begin, end) == nil
}

// Retainer returns the oldest live pin of the set that sees a version
// stamped [begin, end), nil when none does.  Pins below begin predate the
// version and never saw it; pins at or above end only saw its successors.
func (ps PinSet) Retainer(begin, end uint64) *Pin {
	i := sort.Search(len(ps.pins), func(i int) bool { return ps.pins[i].epoch >= begin })
	if i == len(ps.pins) || ps.pins[i].epoch >= end {
		return nil
	}
	return ps.pins[i]
}
