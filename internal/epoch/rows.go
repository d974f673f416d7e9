package epoch

import (
	"slices"
	"sort"
)

// Rows holds the visibility of one partition's stored versions, indexed by
// slot: the main's slots first, then the delta's.  The zero value is an
// empty partition.  Methods require external synchronization (the owning
// table's mutex).
//
// Every slot keeps its begin epoch, non-decreasing in slot order (the
// owning table appends stamps read from a monotone clock or op log, and
// merges keep slot order), so the main slots that began at or before an
// epoch e are a prefix [0, k(e)) found by one binary search.  A delta slot
// keeps its end epoch too.  A main slot does not: the main is read-only
// between merges (paper §3) and marks an invalidated version with one bit
// of a dead bitmap, plus an entry in an exception list that holds its end
// epoch for readers older than its death.  The list is sorted by end, so
// the exceptions a read at epoch e must look past — those with end > e —
// are a suffix, empty at a latest read.
type Rows struct {
	begin []uint64 // every slot
	nm    int      // main slots: [0, nm)
	dead  []uint64 // bit i set: main slot i is dead; (nm+63)/64 words
	// The main's exceptions, sorted by end: dead main slot excSlot[j] was
	// invalidated at excEnd[j].
	excSlot []int32
	excEnd  []uint64
	end     []uint64 // end of delta slot nm+i at i; 0 = current version
	// deltaDead counts the delta slots with end != 0.
	deltaDead int
}

// MainLen returns the number of main slots.
func (r *Rows) MainLen() int { return r.nm }

// Dead returns the number of dead versions, main and delta.
func (r *Rows) Dead() int { return len(r.excEnd) + r.deltaDead }

// LastBegin returns the begin epoch of the last slot, 0 with none: the
// lowest stamp an append may carry.
func (r *Rows) LastBegin() uint64 {
	if len(r.begin) == 0 {
		return 0
	}
	return r.begin[len(r.begin)-1]
}

// LastDeath returns the end epoch of the main's last exception, 0 with
// none: the lowest stamp an invalidation may carry.
func (r *Rows) LastDeath() uint64 {
	if len(r.excEnd) == 0 {
		return 0
	}
	return r.excEnd[len(r.excEnd)-1]
}

// Append stamps a new delta slot as inserted at epoch begin.  begin must be
// at or above LastBegin.
func (r *Rows) Append(begin uint64) {
	r.begin = append(r.begin, begin)
	r.end = append(r.end, 0)
}

// hidden reports whether main slot i is dead.
func (r *Rows) hidden(i int) bool { return r.dead[i>>6]>>(i&63)&1 != 0 }

// Alive reports whether slot i is the current version.
func (r *Rows) Alive(i int) bool {
	if i >= r.nm {
		return r.end[i-r.nm] == 0
	}
	return !r.hidden(i)
}

// Invalidate stamps the current version at slot i dead at epoch end: a
// delta slot's end, or a main slot's bit plus an exception, in O(1).  end
// must be at or above LastDeath, which keeps the exceptions sorted by end
// with the new one last: the owning table reads every stamp under its lock
// from a monotone clock or op log, and refuses a replayed one below it.
func (r *Rows) Invalidate(i int, end uint64) {
	if i >= r.nm {
		r.end[i-r.nm] = end
		r.deltaDead++
		return
	}
	r.dead[i>>6] |= 1 << (i & 63)
	r.excSlot = append(r.excSlot, int32(i))
	r.excEnd = append(r.excEnd, end)
}

// newer returns the index of the first exception with end > e: the
// exceptions of the versions a read at e still sees.
func (r *Rows) newer(e uint64) int {
	return sort.Search(len(r.excEnd), func(j int) bool { return r.excEnd[j] > e })
}

// VisibleAt reports whether slot i is visible to a snapshot at epoch e:
// begin <= e && (end == 0 || end > e).  With e == Latest this degenerates
// to Alive.  A live slot or a delta slot costs O(1); a dead main slot
// costs a scan of the exceptions newer than e — none at a latest read, the
// deaths since the pin at a pinned one.
func (r *Rows) VisibleAt(i int, e uint64) bool {
	if r.begin[i] > e {
		return false
	}
	if i >= r.nm {
		return r.end[i-r.nm]-1 >= e
	}
	return !r.hidden(i) || slices.Contains(r.excSlot[r.newer(e):], int32(i))
}

// MainSeen returns the main's visibility at epoch e in the form the
// selection kernels take (kernel.FilterMain, kernel.CountSelMain), which
// never copies: the main slots [0, k) began at or before e; hide is the
// dead bitmap, nil when no main slot is dead; and seen lists the dead
// slots e still sees, those of the exceptions with end > e, in end order
// and possibly at or past k — empty at a latest read.  The results alias
// internal state under the same rule as the table's lock.
func (r *Rows) MainSeen(e uint64) (k int, hide []uint64, seen []int32) {
	k = r.nm
	if e != Latest {
		k = sort.Search(r.nm, func(i int) bool { return r.begin[i] > e })
	}
	if len(r.excEnd) == 0 || k == 0 {
		return k, nil, nil
	}
	return k, r.dead, r.excSlot[r.newer(e):]
}

// MainAt returns the main's visibility at epoch e in the form the full-scan
// and aggregate kernels take (internal/kernel): the main slots [0, k)
// began at or before e, and a set bit of hide marks one of them invisible.
// At a latest read hide is the dead bitmap itself, and nil when no main
// slot is dead, so every slot below k passes.  Only when an exception has
// end > e is hide a copy of the bitmap's first k bits, with the bits of
// the versions e still sees cleared.  The result aliases internal state
// under the same rule as the table's lock.
func (r *Rows) MainAt(e uint64) (k int, hide []uint64) {
	k, hide, seen := r.MainSeen(e)
	if len(seen) == 0 {
		return k, hide
	}
	hide = slices.Clone(hide[:(k+63)/64])
	for _, s := range seen {
		if int(s) < k {
			hide[s>>6] &^= 1 << (s & 63)
		}
	}
	return k, hide
}

// Delta returns the begin and end epochs of the delta slots, index i for
// slot MainLen()+i, for the flat visibility kernels.  The slices alias
// internal state: callers must hold the owning table's lock while they use
// them and must not mutate or retain them.
func (r *Rows) Delta() (begin, end []uint64) { return r.begin[r.nm:], r.end }

// EachDead calls fn with the slot, begin and end of every dead version
// among the first n slots: the main's exceptions, then the delta's dead
// slots in slot order.  It visits the dead versions only, not every slot.
func (r *Rows) EachDead(n int, fn func(slot int, begin, end uint64)) {
	for j, s := range r.excSlot {
		if int(s) < n {
			fn(int(s), r.begin[s], r.excEnd[j])
		}
	}
	for i, e := range r.end[:max(0, min(n-r.nm, len(r.end)))] {
		if e != 0 {
			fn(r.nm+i, r.begin[r.nm+i], e)
		}
	}
}

// byEnd sorts exceptions by end, then slot.
type byEnd struct {
	slot []int32
	end  []uint64
}

func (x byEnd) Len() int { return len(x.end) }
func (x byEnd) Less(i, j int) bool {
	return x.end[i] < x.end[j] || x.end[i] == x.end[j] && x.slot[i] < x.slot[j]
}
func (x byEnd) Swap(i, j int) {
	x.slot[i], x.slot[j] = x.slot[j], x.slot[i]
	x.end[i], x.end[j] = x.end[j], x.end[i]
}

// Fold moves the first nf delta slots into the main, as a merge commit
// does, and removes the slots listed in drop (ascending, all below
// MainLen()+nf) from both.  Survivors keep their order, so a survivor's new
// slot is its old one minus the dropped slots before it.  The folded
// delta's dead versions become exceptions, and the new main's bitmap is
// rebuilt from the exceptions alone — O(new main/64 + dead) — unless
// nothing is dropped, when it is only extended.  Begin epochs close up
// behind the dropped slots in one pass from the first of them.
func (r *Rows) Fold(nf int, drop []int) {
	n := r.nm + nf
	if len(drop) > 0 && drop[len(drop)-1] >= n {
		panic("epoch: Fold drops a slot beyond the folded range")
	}
	// rank maps a slot to its new slot, or -1 when dropped.
	rank := func(p int) int {
		j := sort.SearchInts(drop, p)
		if j < len(drop) && drop[j] == p {
			return -1
		}
		return p - j
	}
	exc := byEnd{r.excSlot[:0], r.excEnd[:0]}
	for j, s := range r.excSlot {
		if s := rank(int(s)); s >= 0 {
			exc.slot, exc.end = append(exc.slot, int32(s)), append(exc.end, r.excEnd[j])
		}
	}
	kept := exc.Len()
	if r.deltaDead > 0 {
		for i, e := range r.end[:nf] {
			if e != 0 {
				if s := rank(r.nm + i); s >= 0 {
					exc.slot, exc.end = append(exc.slot, int32(s)), append(exc.end, e)
				}
			}
		}
	}
	if exc.Len() > kept {
		sort.Sort(exc)
	}
	r.excSlot, r.excEnd = exc.slot, exc.end

	nm := n - len(drop)
	if len(drop) == 0 {
		old := len(r.dead)
		r.dead = slices.Grow(r.dead, (nm+63)/64-old)[:(nm+63)/64]
		clear(r.dead[old:])
	} else {
		r.dead = make([]uint64, (nm+63)/64)
		w := drop[0]
		for k, p := range drop {
			next := len(r.begin)
			if k+1 < len(drop) {
				next = drop[k+1]
			}
			w += copy(r.begin[w:], r.begin[p+1:next])
		}
		r.begin = r.begin[:w]
	}
	for _, s := range r.excSlot {
		r.dead[s>>6] |= 1 << (s & 63)
	}
	r.nm = nm
	r.end = append([]uint64(nil), r.end[nf:]...)
	if r.deltaDead > 0 {
		r.deltaDead = 0
		for _, e := range r.end {
			if e != 0 {
				r.deltaDead++
			}
		}
	}
}

// Snapshot returns flat copies of the begin and end columns, every slot's
// end expanded from the bitmap and exceptions (for images and tests).
func (r *Rows) Snapshot() (begin, end []uint64) {
	begin = slices.Clone(r.begin)
	end = make([]uint64, len(r.begin))
	for j, s := range r.excSlot {
		end[s] = r.excEnd[j]
	}
	copy(end[r.nm:], r.end)
	return begin, end
}

// RowsOf builds the visibility of a partition whose first mainRows slots
// are main slots from flat begin and end columns, which must be equally
// long; begin is retained, end is not.  Adopting a partition image
// installs its epochs with this.
func RowsOf(begin, end []uint64, mainRows int) Rows {
	if len(begin) != len(end) || mainRows < 0 || mainRows > len(begin) {
		panic("epoch: begin and end columns differ in length or hold fewer than mainRows")
	}
	r := Rows{begin: begin, end: end}
	for _, e := range end {
		if e != 0 {
			r.deltaDead++
		}
	}
	r.Fold(mainRows, nil)
	return r
}

// SizeBytes returns the memory held: one begin epoch per slot, the main's
// bitmap words, 12 bytes per exception (its slot and end), and one end
// epoch per delta slot.
func (r *Rows) SizeBytes() int {
	return 8*len(r.begin) + 8*len(r.dead) + 12*len(r.excEnd) + 8*len(r.end)
}
