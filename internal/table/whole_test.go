package table

import (
	"context"
	"math/rand"
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

// whole reads the whole-visible predicate under the table's read lock.
func whole(tb *Table, e uint64) bool {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return tb.wholeAt(e)
}

// TestWholeVisibleMain drives a seeded history through every write that
// moves the whole-visible predicate — inserts, updates and deletes of main
// and delta rows, a cross-partition MoveRow, merges with and without an
// older pin, inserts between a merge's freeze and its commit, an aborted
// merge, an Adopt of a captured Image and a follower's replayed stamps — and
// after each step checks wholeAt and every read path, at latest and at each
// pinned epoch, against the oracle checkReads builds from RowEpochs.
func TestWholeVisibleMain(t *testing.T) {
	clock := epoch.NewClock()
	a, err := NewWithClock("a", testSchema(), clock)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWithClock("b", testSchema(), clock)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CreateIndex("qty"); err != nil { // the posting-list CountEqualAt path
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	var pins []View
	defer func() {
		for _, p := range pins {
			p.Release()
		}
	}()
	check := func(stage string, tbs ...*Table) {
		t.Helper()
		for _, tb := range tbs {
			for _, view := range append([]View{Latest()}, pins...) {
				at := stage + ", " + tb.Name()
				checkReads[uint64](t, tb, "id", view, at)
				checkReads[uint32](t, tb, "qty", view, at)
			}
		}
	}
	expect := func(stage string, tb *Table, e uint64, want bool) {
		t.Helper()
		if got := whole(tb, e); got != want {
			t.Fatalf("%s: %s wholeAt(%d) = %v, want %v (dead %d, mainBegin %d)",
				stage, tb.Name(), e, got, want, tb.dead, tb.mainBegin)
		}
	}
	merge := func(tb *Table, ctx context.Context) Report {
		t.Helper()
		rep, err := tb.Merge(ctx, MergeOptions{Threads: 4})
		if err != nil && !rep.Aborted {
			t.Fatal(err)
		}
		return rep
	}
	mainID := func(tb *Table, slots int) int { // a current row among the first slots
		t.Helper()
		ids := tb.RowIDs()
		for range 1000 {
			if id := ids[rng.Intn(slots)]; tb.IsValid(id) {
				return id
			}
		}
		t.Fatal("no current main row")
		return 0
	}

	fillRandom(t, a, 200, 1)
	fillRandom(t, b, 20, 2)
	merge(a, context.Background())
	merge(b, context.Background())
	expect("insert-only GC merge", a, epoch.Latest, true)
	p0 := a.Snapshot()
	pins = append(pins, p0)
	expect("insert-only GC merge", a, p0.Epoch(), true)
	check("insert-only GC merge", a, b)

	// Rows stamped after p0 are merged in: the main is whole at latest but
	// not at the older pin, which must not see them.
	fillRandom(t, a, 50, 3)
	merge(a, context.Background())
	expect("pin older than the merge", a, p0.Epoch(), false)
	expect("pin older than the merge", a, epoch.Latest, true)
	check("pin older than the merge", a)

	// Any dead version, of a delta row as of a main row, keeps the per-row
	// test.
	fillRandom(t, a, 10, 4)
	delta := a.RowIDs()[a.MainRows():]
	if _, err := a.Update(delta[3], map[string]any{"qty": uint32(7)}); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete(delta[5]); err != nil {
		t.Fatal(err)
	}
	expect("delta writes", a, epoch.Latest, false)
	check("delta writes", a)
	// The rows p0 sees, so that it retains their dead versions below.
	if err := a.Delete(mainID(a, 200)); err != nil {
		t.Fatal(err)
	}
	expect("main delete", a, epoch.Latest, false)
	if _, err := a.Update(mainID(a, 200), map[string]any{"id": uint64(4242)}); err != nil {
		t.Fatal(err)
	}
	p1 := a.Snapshot()
	pins = append(pins, p1)
	// A move out of b's main kills a main version of b, not of a.
	moved := mainID(b, b.MainRows())
	row, err := b.Row(moved)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MoveRow(b, moved, a, row); err != nil {
		t.Fatal(err)
	}
	expect("MoveRow", b, epoch.Latest, false)
	check("main writes", a, b)

	// The older pins retain the dead main versions through a GC merge.
	merge(a, context.Background())
	merge(b, context.Background())
	expect("merge under pins", a, epoch.Latest, false)
	expect("merge under pins", b, epoch.Latest, false)
	check("merge under pins", a, b)

	// A captured image carries the dead main rows into the adopting
	// partition.
	adoptedA := adopted(t, a)
	expect("Adopt", adoptedA, epoch.Latest, false)
	check("Adopt", adoptedA)

	// Released, the next GC merge makes the main whole again.
	for _, p := range pins {
		p.Release()
	}
	pins = nil
	for _, tb := range []*Table{a, b} {
		if rep := merge(tb, context.Background()); rep.RowsReclaimed == 0 {
			t.Fatalf("%s: GC merge with no pin reclaimed nothing", tb.Name())
		}
		expect("GC merge", tb, epoch.Latest, true)
	}
	p2 := a.Snapshot()
	pins = append(pins, p2)
	expect("GC merge", a, p2.Epoch(), true)
	check("GC merge", a)
	adoptedA = adopted(t, a)
	expect("Adopt after GC", adoptedA, epoch.Latest, true)
	expect("Adopt after GC", adoptedA, p2.Epoch(), true)
	expect("Adopt after GC", adoptedA, p0.Epoch(), false)
	pins = append(pins, ViewAt(p0.Epoch()))
	check("Adopt after GC", adoptedA)
	pins = pins[:1]

	// Inserts between freeze and commit land in the second delta: a pin
	// taken there sees every frozen row, so the committed main is whole at
	// it, and the rows stamped after the freeze stay out of mainBegin.
	fillRandom(t, a, 20, 5)
	var mid View
	merge(a, &phaseCtx{Context: context.Background(), hook: func() {
		mid = a.Snapshot()
		fillRandom(t, a, 5, 6)
		expect("mid merge", a, epoch.Latest, true) // the old main is untouched
		check("mid merge", a)
	}})
	pins = append(pins, mid)
	expect("inserts mid-merge", a, mid.Epoch(), true)
	expect("inserts mid-merge", a, epoch.Latest, true)
	check("inserts mid-merge", a)
	mid.Release()
	pins = pins[:1]

	// An aborted merge leaves the main and its predicate as they were.
	fillRandom(t, a, 15, 7)
	if rep := merge(a, &phaseCtx{Context: context.Background(), abort: true, hook: func() {
		if err := a.Delete(mainID(a, a.MainRows())); err != nil {
			t.Fatal(err)
		}
	}}); !rep.Aborted {
		t.Fatal("merge did not abort")
	}
	expect("aborted merge, main delete", a, epoch.Latest, false)
	check("aborted merge, main delete", a)

	// A follower replays its primary's stamps, which run ahead of its own
	// clock: the main's begin bound must come from them.
	f, err := New("follower", testSchema())
	if err != nil {
		t.Fatal(err)
	}
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
	if err := f.ApplyInsert(0, batch(8), 3); err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyInsert(30, batch(9), 10); err != nil {
		t.Fatal(err)
	}
	merge(f, context.Background())
	expect("follower", f, 5, false)
	expect("follower", f, 10, true)
	p2.Release()
	pins = []View{ViewAt(5), ViewAt(10)}
	check("follower", f)
}
