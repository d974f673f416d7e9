package table

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hyrise/internal/epoch"
)

// slotModel is the reference for id resolution: the stable ids the table
// must be storing, in slot order, and which of them are dead.  The id ->
// slot map every check builds from it is the structure the table no longer
// has.
type slotModel struct {
	t      *testing.T
	clock  *epoch.Clock
	tbl    *Table
	sink   *Table // MoveRow destination
	stored []int  // stable id per slot
	dead   map[int]bool
	next   int
}

func slotSchema() Schema { return Schema{{Name: "k", Type: Uint64}, {Name: "v", Type: Uint32}} }

func newSlotModel(t *testing.T) *slotModel {
	m := &slotModel{t: t, clock: epoch.NewClock(), dead: map[int]bool{}}
	var err error
	if m.tbl, err = NewWithClock("m", slotSchema(), m.clock); err != nil {
		t.Fatal(err)
	}
	if m.sink, err = NewWithClock("sink", slotSchema(), m.clock); err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *slotModel) insert(k uint64) {
	m.t.Helper()
	id, err := m.tbl.Insert([]any{k, uint32(k)})
	if err != nil || id != m.next {
		m.t.Fatalf("insert: id %d err %v, want id %d", id, err, m.next)
	}
	m.stored = append(m.stored, id)
	m.next++
}

// live returns a random live id, or -1.
func (m *slotModel) live(rng *rand.Rand) int {
	var live []int
	for _, id := range m.stored {
		if !m.dead[id] {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[rng.Intn(len(live))]
}

func (m *slotModel) update(id int) {
	m.t.Helper()
	nid, err := m.tbl.Update(id, map[string]any{"v": uint32(id + 1)})
	if err != nil || nid != m.next {
		m.t.Fatalf("update %d: id %d err %v, want id %d", id, nid, err, m.next)
	}
	m.dead[id] = true
	m.stored = append(m.stored, nid)
	m.next++
}

func (m *slotModel) remove(id int) {
	m.t.Helper()
	if err := m.tbl.Delete(id); err != nil {
		m.t.Fatalf("delete %d: %v", id, err)
	}
	m.dead[id] = true
}

func (m *slotModel) moveOut(id int) {
	m.t.Helper()
	if _, err := MoveRow(m.tbl, id, m.sink, []any{uint64(id), uint32(id)}); err != nil {
		m.t.Fatalf("move %d out: %v", id, err)
	}
	m.dead[id] = true
}

// merge runs a garbage-collecting merge: with nothing pinned it reclaims
// every dead version, wherever it is stored.
func (m *slotModel) merge() {
	m.t.Helper()
	rep, err := m.tbl.Merge(context.Background(), MergeOptions{})
	if err != nil {
		m.t.Fatalf("merge: %v", err)
	}
	kept := m.stored[:0]
	for _, id := range m.stored {
		if !m.dead[id] {
			kept = append(kept, id)
		}
	}
	if rep.RowsReclaimed != len(m.stored)-len(kept) {
		m.t.Fatalf("merge reclaimed %d, model %d", rep.RowsReclaimed, len(m.stored)-len(kept))
	}
	m.stored, m.dead = kept, map[int]bool{}
}

// restore rebuilds the table the way the snapshot loader does: a fresh
// partition adopts the old one's image.
func (m *slotModel) restore() {
	m.t.Helper()
	fresh, err := NewWithClock("m", slotSchema(), m.clock)
	if err != nil {
		m.t.Fatal(err)
	}
	if err := fresh.Adopt(m.tbl.Image()); err != nil {
		m.t.Fatal(err)
	}
	m.tbl = fresh
}

// check resolves every id ever handed out, and a few never handed out,
// against the model's map.
func (m *slotModel) check(step string) {
	m.t.Helper()
	slots := make(map[int]int, len(m.stored))
	for slot, id := range m.stored {
		slots[id] = slot
	}
	tbl := m.tbl
	if tbl.NextRowID() != m.next || tbl.Rows() != len(m.stored) {
		m.t.Fatalf("%s: nextID %d rows %d, model %d/%d", step, tbl.NextRowID(), tbl.Rows(), m.next, len(m.stored))
	}
	retired := -1
	for id := 0; id < m.next; id++ {
		got, err := tbl.slotFor(id)
		want, stored := slots[id]
		switch {
		case stored && (err != nil || got != want):
			m.t.Fatalf("%s: id %d resolves to slot %d (%v), model slot %d", step, id, got, err, want)
		case !stored && !errors.Is(err, ErrRowInvalid):
			m.t.Fatalf("%s: retired id %d: slot %d err %v, want ErrRowInvalid", step, id, got, err)
		}
		if !stored {
			retired = id
		}
		if tbl.IsValid(id) != (stored && !m.dead[id]) {
			m.t.Fatalf("%s: IsValid(%d) = %v, model stored %v dead %v", step, id, tbl.IsValid(id), stored, m.dead[id])
		}
	}
	for _, id := range []int{-1, m.next, m.next + 1, m.next + 1000} {
		if _, err := tbl.slotFor(id); !errors.Is(err, ErrRowRange) {
			m.t.Fatalf("%s: id %d never handed out: %v, want ErrRowRange", step, id, err)
		}
	}
	// Replay tells the two apart as well: an invalidation of a retired id
	// is a no-op (the follower's own GC got there first), of an unknown id
	// a gap in the log.
	if retired >= 0 {
		if err := tbl.ApplyInvalidate(uint64(retired), m.clock.Now()); err != nil {
			m.t.Fatalf("%s: replayed invalidate of retired id %d: %v", step, retired, err)
		}
	}
	if err := tbl.ApplyInvalidate(uint64(m.next), m.clock.Now()); !errors.Is(err, ErrReplayGap) {
		m.t.Fatalf("%s: replayed invalidate of unknown id: %v, want ErrReplayGap", step, err)
	}
}

// TestSlotResolutionModel checks id resolution over the sorted ids slice
// against a reference map after every step of seeded random histories.
func TestSlotResolutionModel(t *testing.T) {
	t.Run("never-reclaimed", func(t *testing.T) {
		// The window is empty: every id is its own slot, across merges too.
		m := newSlotModel(t)
		for k := 0; k < 300; k++ {
			m.insert(uint64(k))
			if k%97 == 0 {
				m.merge()
			}
		}
		m.check("filled")
		m.restore()
		m.check("restored")
	})
	t.Run("all-retired-prefix", func(t *testing.T) {
		m := newSlotModel(t)
		for k := 0; k < 200; k++ {
			m.insert(uint64(k))
		}
		for id := 0; id < 150; id++ {
			m.remove(id)
		}
		m.merge()
		m.check("prefix reclaimed")
		for id := 150; id < 200; id++ {
			m.remove(id)
		}
		m.merge() // nothing stored at all, 200 ids retired
		m.check("everything reclaimed")
		m.insert(7)
		m.check("first row after")
	})
	t.Run("skewed-gaps", func(t *testing.T) {
		// Survivors at the powers of two, then a dense tail: interpolation
		// between the window's ends keeps landing far from the id, so the
		// bisection fallback has to finish the search.
		m := newSlotModel(t)
		for k := 0; k < 4096; k++ {
			m.insert(uint64(k))
		}
		for id := 0; id < 4000; id++ {
			if id&(id-1) != 0 {
				m.remove(id)
			}
		}
		m.merge()
		m.check("skewed")
	})
	for seed := int64(1); seed <= 6; seed++ {
		t.Run("random", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := newSlotModel(t)
			for step := 0; step < 300; step++ {
				id := m.live(rng)
				op := rng.Intn(100)
				switch {
				case op < 35 || id < 0:
					m.insert(uint64(step))
				case op < 60:
					m.update(id)
				case op < 72:
					m.remove(id)
				case op < 80:
					m.moveOut(id)
				case op < 95:
					m.merge()
				default:
					m.restore()
				}
				m.check("step")
			}
		})
	}
}
