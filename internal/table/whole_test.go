package table

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"hyrise/internal/epoch"
)

// phaseCtx is a context whose second Err call — the first one Merge makes
// after the freeze, in its unlocked column phase — runs hook and, when
// abort is set, reports cancellation from then on, so a test can write
// between a merge's freeze and its commit or abort.
type phaseCtx struct {
	context.Context
	calls int
	hook  func()
	abort bool
}

func (c *phaseCtx) Err() error {
	c.calls++
	if c.calls == 2 {
		c.hook()
	}
	if c.abort && c.calls >= 2 {
		return context.Canceled
	}
	return nil
}

// whole reports whether the main-partition kernels read tb's main at epoch
// e untested: every main row began by e and none is dead, so its
// visibility is (N_M, nil).
func whole(tb *Table, e uint64) bool {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	k, hide := tb.epochs.MainAt(e)
	return k == tb.epochs.MainLen() && hide == nil
}

// checkMainBitmap pins the main's visibility store to the flat begin/end
// oracle RowEpochs expands: begin ascends, a main slot's bitmap bit is set
// exactly when its end is not 0, the dead count is the number of non-zero
// ends, a latest read hands out the bitmap itself — no copy — and every
// view's (k, hide) marks exactly the main slots the flat rule hides.
func checkMainBitmap(t *testing.T, tb *Table, views []View, at string) {
	t.Helper()
	begin, end := tb.RowEpochs()
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	if !slices.IsSorted(begin) {
		t.Fatalf("%s: begin epochs not ascending: %v", at, begin)
	}
	nm, dead := tb.epochs.MainLen(), 0
	for _, x := range end {
		if x != 0 {
			dead++
		}
	}
	if got := tb.epochs.Dead(); got != dead {
		t.Fatalf("%s: Dead() = %d, want %d", at, got, dead)
	}
	if nm != tb.cols[0].mainLen() {
		t.Fatalf("%s: epochs hold %d main rows, columns %d", at, nm, tb.cols[0].mainLen())
	}
	for i := range nm {
		if alive := tb.epochs.Alive(i); alive != (end[i] == 0) {
			t.Fatalf("%s: main slot %d alive %v, end %d", at, i, alive, end[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { tb.epochs.MainAt(epoch.Latest) }); allocs != 0 {
		t.Fatalf("%s: a latest read copies the main's bitmap (%v allocations)", at, allocs)
	}
	for _, v := range views {
		e := v.Epoch()
		k, hide := tb.epochs.MainAt(e)
		for i := range nm {
			want := begin[i] <= e && (end[i] == 0 || end[i] > e)
			got := i < k && (hide == nil || hide[i>>6]>>(i&63)&1 == 0)
			if got != want {
				t.Fatalf("%s: at epoch %d main slot %d reads visible=%v, want %v", at, e, i, got, want)
			}
		}
	}
}

// visHistory is the state TestMainVisibility's steps share: two partitions
// on one clock, a follower on its own, the pins every read is checked at,
// the epochs of released pins, read at on as unpinned views, and the
// partitions checked after each step.
type visHistory struct {
	t       *testing.T
	a, b, f *Table
	rng     *rand.Rand
	pins    []View
	past    []View
	check   []*Table
	p0, mid View
}

func (h *visHistory) merge(tb *Table, ctx context.Context) Report {
	h.t.Helper()
	rep, err := tb.Merge(ctx, MergeOptions{Threads: 4})
	if err != nil && !rep.Aborted {
		h.t.Fatal(err)
	}
	return rep
}

// current returns a current row id among tb's first slots.
func (h *visHistory) current(tb *Table, slots int) int {
	h.t.Helper()
	ids := tb.RowIDs()
	for range 1000 {
		if id := ids[h.rng.Intn(slots)]; tb.IsValid(id) {
			return id
		}
	}
	h.t.Fatal("no current row")
	return 0
}

func (h *visHistory) pin(tb *Table) View {
	v := tb.Snapshot()
	h.pins = append(h.pins, v)
	return v
}

// TestMainVisibility drives a seeded history through every write that
// moves a main's visibility — inserts, updates and deletes of main and
// delta rows, a cross-partition MoveRow, merges that reclaim and merges
// that keep dead versions for a pin, writes between a merge's freeze and
// its commit, an aborted merge, an Adopt of a captured Image and a
// follower's replayed stamps.  After each step every read path (Count,
// Rows, Sum, MinMax, the equality count, seeded and conjunctive queries,
// ScanAt and VisibleAt; checkReads) runs at latest and at every pinned
// epoch against the flat begin/end oracle, and at every released pin's
// epoch against the same oracle until a reclaiming merge passes it, after
// which every path must fail with ErrReclaimed; and
// the bitmap is checked against the same oracle (checkMainBitmap).  The
// partition's Adopt(Image()) must reproduce RowEpochs exactly, and its
// bitmap and every read path are checked the same way.  whole — the
// kernels' untested path — must hold exactly where the step says, on the
// partition and on its adopted copy.
func TestMainVisibility(t *testing.T) {
	clock := epoch.NewClock()
	h := &visHistory{t: t, rng: rand.New(rand.NewSource(44))}
	var err error
	if h.a, err = NewWithClock("a", testSchema(), clock); err != nil {
		t.Fatal(err)
	}
	if h.b, err = NewWithClock("b", testSchema(), clock); err != nil {
		t.Fatal(err)
	}
	if h.f, err = New("follower", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := h.a.CreateIndex("qty"); err != nil { // the posting-list count and seed
		t.Fatal(err)
	}
	defer func() {
		for _, p := range h.pins {
			p.Release()
		}
	}()
	type expect struct {
		tb    func() *Table
		epoch func() uint64
		want  bool
	}
	latest := func() uint64 { return epoch.Latest }
	at := func(v *View) func() uint64 { return func() uint64 { return v.Epoch() } }
	A := func() *Table { return h.a }
	B := func() *Table { return h.b }
	F := func() *Table { return h.f }
	steps := []struct {
		name  string
		do    func()
		whole []expect
	}{
		{"insert-only merge", func() {
			fillRandom(t, h.a, 200, 1)
			fillRandom(t, h.b, 20, 2)
			h.merge(h.a, context.Background())
			h.merge(h.b, context.Background())
			h.p0 = h.pin(h.a)
			h.check = []*Table{h.a, h.b}
		}, []expect{{A, latest, true}, {A, at(&h.p0), true}, {B, latest, true}}},

		// Rows stamped after p0 are merged in: the main is whole at latest
		// but not at the older pin, which must not see them.
		{"rows after an older pin", func() {
			fillRandom(t, h.a, 50, 3)
			h.merge(h.a, context.Background())
		}, []expect{{A, latest, true}, {A, at(&h.p0), false}}},

		// Dead delta versions leave the main untested.
		{"delta update and delete", func() {
			fillRandom(t, h.a, 10, 4)
			delta := h.a.RowIDs()[h.a.MainRows():]
			if _, err := h.a.Update(delta[3], map[string]any{"qty": uint32(7)}); err != nil {
				t.Fatal(err)
			}
			if err := h.a.Delete(delta[5]); err != nil {
				t.Fatal(err)
			}
		}, []expect{{A, latest, true}}},

		// The rows p0 sees, so that it retains their dead versions below.
		{"main delete and update", func() {
			if err := h.a.Delete(h.current(h.a, 200)); err != nil {
				t.Fatal(err)
			}
			if _, err := h.a.Update(h.current(h.a, 200), map[string]any{"id": uint64(4242)}); err != nil {
				t.Fatal(err)
			}
			h.pin(h.a)
		}, []expect{{A, latest, false}}},

		// A move out of b's main kills a main version of b, not of a.
		{"cross-partition move", func() {
			moved := h.current(h.b, h.b.MainRows())
			row, err := h.b.Row(moved)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := MoveRow(h.b, moved, h.a, row); err != nil {
				t.Fatal(err)
			}
		}, []expect{{B, latest, false}}},

		// The pins retain the dead main versions they see through a GC
		// merge, which reclaims the delta versions no pin saw.
		{"merge under pins", func() {
			if rep := h.merge(h.a, context.Background()); rep.RowsReclaimed == 0 || rep.RowsReclaimed == rep.DeadAtFreeze {
				t.Fatalf("merge under pins reclaimed %d of %d dead versions, want some but not all", rep.RowsReclaimed, rep.DeadAtFreeze)
			}
			if rep := h.merge(h.b, context.Background()); rep.RowsReclaimed != 0 {
				t.Fatalf("b's merge under a pin reclaimed %d", rep.RowsReclaimed)
			}
		}, []expect{{A, latest, false}, {B, latest, false}}},

		// A merge that reclaims nothing keeps the kept versions as they were.
		{"merge without reclamation", func() {
			fillRandom(t, h.a, 5, 5)
			if rep := h.merge(h.a, context.Background()); rep.RowsReclaimed != 0 || rep.DeadAtFreeze == 0 {
				t.Fatalf("merge reclaimed %d of %d dead versions, want none of some", rep.RowsReclaimed, rep.DeadAtFreeze)
			}
		}, []expect{{A, latest, false}}},

		// Released, the next GC merges make the mains whole again.
		{"release and reclaim", func() {
			for _, p := range h.pins {
				p.Release()
				h.past = append(h.past, ViewAt(p.Epoch()))
			}
			h.pins = nil
			for _, tb := range []*Table{h.a, h.b} {
				if rep := h.merge(tb, context.Background()); rep.RowsReclaimed == 0 {
					t.Fatalf("%s: GC merge with no pin reclaimed nothing", tb.Name())
				}
			}
			h.p0 = h.pin(h.a)
		}, []expect{{A, latest, true}, {B, latest, true}, {A, at(&h.p0), true}, {A, func() uint64 { return h.past[0].Epoch() }, false}}},

		// Writes between freeze and commit: inserts land in the second
		// delta, a delete of a main row sets a bit of the old main and one
		// of a frozen delta row its end, and commit carries both into the
		// new main.  A pin taken there sees every frozen row.
		{"writes mid-merge", func() {
			fillRandom(t, h.a, 20, 6)
			frozen := h.a.RowIDs()[h.a.MainRows():]
			h.merge(h.a, &phaseCtx{Context: context.Background(), hook: func() {
				h.mid = h.pin(h.a)
				fillRandom(t, h.a, 5, 7)
				if err := h.a.Delete(h.current(h.a, h.a.MainRows())); err != nil {
					t.Fatal(err)
				}
				if err := h.a.Delete(frozen[2]); err != nil {
					t.Fatal(err)
				}
			}})
			if visibleAt(h.a, Latest(), frozen[2]) || !visibleAt(h.a, h.mid, frozen[2]) {
				t.Fatal("a frozen delta row deleted mid-merge lost its end at commit")
			}
		}, []expect{{A, at(&h.mid), false}, {A, latest, false}}},

		// An aborted merge leaves the main and its bitmap as they were.
		{"aborted merge", func() {
			fillRandom(t, h.a, 15, 8)
			if rep := h.merge(h.a, &phaseCtx{Context: context.Background(), abort: true, hook: func() {
				if err := h.a.Delete(h.current(h.a, h.a.MainRows())); err != nil {
					t.Fatal(err)
				}
			}}); !rep.Aborted {
				t.Fatal("merge did not abort")
			}
		}, []expect{{A, latest, false}}},

		// A follower replays its primary's stamps, which run ahead of its
		// own clock: k(e) comes from them.
		{"follower replay", func() {
			batch := func(seed int64) [][]any {
				src := newTestTable(t)
				fillRandom(t, src, 30, seed)
				var rows [][]any
				for _, id := range src.RowIDs() {
					r, _ := src.Row(id)
					rows = append(rows, r)
				}
				return rows
			}
			if err := h.f.ApplyInsert(0, batch(9), 3); err != nil {
				t.Fatal(err)
			}
			if err := h.f.ApplyInsert(30, batch(10), 10); err != nil {
				t.Fatal(err)
			}
			h.merge(h.f, context.Background())
			if !whole(h.f, 10) {
				t.Fatal("follower main not whole at its last stamp")
			}
			if err := h.f.ApplyInvalidate(4, 12); err != nil {
				t.Fatal(err)
			}
			h.check = []*Table{h.f}
			h.pins = append(h.pins, ViewAt(5), ViewAt(10), ViewAt(12))
		}, []expect{{F, func() uint64 { return 5 }, false}, {F, func() uint64 { return 11 }, false}, {F, latest, false}}},
	}
	for _, st := range steps {
		st.do()
		views := append(append([]View{Latest()}, h.pins...), h.past...)
		for _, tb := range h.check {
			ad := adopted(t, tb)
			sameTable(t, tb, ad)
			for _, c := range []struct {
				tb    *Table
				where string
			}{{tb, st.name + ", " + tb.Name()}, {ad, st.name + ", adopted " + tb.Name()}} {
				for _, view := range views {
					checkReads[uint64](t, c.tb, "id", view, c.where)
					checkReads[uint32](t, c.tb, "qty", view, c.where)
				}
				checkMainBitmap(t, c.tb, views, c.where)
			}
		}
		for _, w := range st.whole {
			tb := w.tb()
			for _, c := range []*Table{tb, adopted(t, tb)} {
				if got := whole(c, w.epoch()); got != w.want {
					t.Fatalf("%s: %s whole at %d = %v, want %v", st.name, tb.Name(), w.epoch(), got, w.want)
				}
			}
		}
	}
}
