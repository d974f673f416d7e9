package table

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// TestReadsSpanEverySegment runs every typed column read (tcol) while
// the rows sit in three places — main, frozen delta and second delta — with
// deletes and updates landing in the second delta, on an indexed (qty) and
// an unindexed (id) column, at latest and at two pinned views.  Each read is
// compared against a scalar reference built from Row and VisibleAt, then
// again after the merge aborts, after a real merge commits, and after a
// pin-free merge reclaims deleted rows.  Read runs beside them with every
// conjunction over both columns and every reduction (checkSelect).
func TestReadsSpanEverySegment(t *testing.T) {
	tb := newTestTable(t)
	if err := tb.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	fillRandom(t, tb, 300, 21)
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	fillRandom(t, tb, 40, 22) // ids 300..339: the delta the merge freezes
	if err := tb.Delete(7); err != nil {
		t.Fatal(err)
	}
	beforeFreeze := tb.Snapshot()
	defer beforeFreeze.Release()

	// Freeze exactly as Merge's phase 1 does, then stay there.
	tb.mergeMu.Lock()
	tb.mu.Lock()
	tb.merging = true
	for _, c := range tb.cols {
		c.beginMerge()
	}
	tb.mu.Unlock()
	fillRandom(t, tb, 30, 23) // ids 340..369: the second delta
	midMerge := tb.Snapshot()
	defer midMerge.Release()
	// Delete and update one row of each segment; the new versions land in
	// the second delta with values no older row holds.
	for _, id := range []int{11, 305, 345} {
		if err := tb.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{12, 310, 350} {
		if _, err := tb.Update(id, map[string]any{"id": uint64(5000 + id), "qty": uint32(200 + id)}); err != nil {
			t.Fatal(err)
		}
	}
	if !tb.Indexed("qty") {
		t.Fatal("qty lost its index")
	}

	views := map[string]View{"latest": Latest(), "before freeze": beforeFreeze, "mid merge": midMerge}
	check := func(stage string) {
		t.Helper()
		for name, view := range views {
			checkReads[uint64](t, tb, "id", view, stage+", "+name)
			checkReads[uint32](t, tb, "qty", view, stage+", "+name)
			checkSelect(t, tb, view, stage+", "+name)
		}
	}
	check("mid merge")

	// Roll the merge back as Merge's abort path does.
	tb.mu.Lock()
	for _, c := range tb.cols {
		c.abortMerge()
	}
	tb.merging = false
	tb.mu.Unlock()
	tb.mergeMu.Unlock()
	check("after abort")

	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	check("after commit")

	// Reclaim: with the pins released, a merge drops every dead version,
	// so ids has holes in the main and reads resolve slots across them.
	beforeFreeze.Release()
	midMerge.Release()
	views = map[string]View{"latest": Latest()}
	for _, id := range []int{20, 320, 360} {
		if err := tb.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := tb.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsReclaimed == 0 || len(tb.RowIDs()) == tb.NextRowID() {
		t.Fatalf("merge reclaimed %d rows, %d of %d ids left", rep.RowsReclaimed, len(tb.RowIDs()), tb.NextRowID())
	}
	check("after reclaim")
}

// checkReads compares every read of one numeric column at one view against
// the scalar reference: the stored versions in slot order (tb.RowIDs, Row)
// and the subset whose begin/end epochs (tb.RowEpochs) admit the view's
// epoch.  A view with no live pin below the GC watermark must instead fail
// every read with ErrReclaimed (checkReclaimed).
func checkReads[V interface{ ~uint32 | ~uint64 }](t *testing.T, tb *Table, col string, view View, at string) {
	t.Helper()
	h, err := colOf[V](tb, col)
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := tb.schema.Index(col)
	if view.Epoch() < tb.GCWatermark() && (view.pin == nil || view.pin.Released()) {
		checkReclaimed(t, h, view, at)
		return
	}
	type entry struct {
		id int
		v  V
	}
	var stored, visible []entry
	seen := map[V]bool{}
	begin, end := tb.RowEpochs()
	e := view.Epoch()
	for slot, id := range tb.RowIDs() {
		row, err := tb.Row(id)
		if err != nil {
			t.Fatal(err)
		}
		x := entry{id, row[ci].(V)}
		stored = append(stored, x)
		seen[x.v] = true
		if begin[slot] <= e && (end[slot] == 0 || end[slot] > e) {
			visible = append(visible, x)
		}
	}
	if got := tb.ValidRowsAt(view); got != len(visible) {
		t.Fatalf("%s: ValidRowsAt = %d, want %d", at, got, len(visible))
	}
	var visibleIDs []int
	for _, e := range visible {
		visibleIDs = append(visibleIDs, e.id)
	}
	if s, err := tb.Read(view, Plan{Reduce: Rows}); err != nil || !slices.Equal(s.Rows, visibleIDs) {
		t.Fatalf("%s: Read(Rows) = %v, %v, want %v", at, s.Rows, err, visibleIDs)
	}
	for slot, e := range stored {
		if got, want := visibleAt(tb, view, e.id), begin[slot] <= view.Epoch() && (end[slot] == 0 || end[slot] > view.Epoch()); got != want {
			t.Fatalf("%s: VisibleAt(%d) = %v, want %v", at, e.id, got, want)
		}
	}
	where := func(keep func(V) bool) []int {
		var ids []int
		for _, e := range visible {
			if keep(e.v) {
				ids = append(ids, e.id)
			}
		}
		return ids
	}

	// Point reads: every stored value plus one no row holds.
	probes := []V{^V(0)}
	for v := range seen {
		probes = append(probes, v)
	}
	slices.Sort(probes)
	st := tb.Stats().Columns[ci]
	tb.mu.RLock()
	indexed := tb.cols[ci].(*typedColumn[V]).main.Index() != nil // not yet after Adopt
	tb.mu.RUnlock()
	for _, p := range probes {
		want := where(func(v V) bool { return v == p })
		if got := h.LookupAt(view, p); !slices.Equal(got, want) {
			t.Fatalf("%s: %s LookupAt(%v) = %v, want %v", at, col, p, got, want)
		}
		if got := h.CountEqualAt(view, p); got != len(want) {
			t.Fatalf("%s: %s CountEqualAt(%v) = %d, want %d", at, col, p, got, len(want))
		}
		// A conjunctive query: a range seeds, the equality refines.
		plan := Plan{Preds: []Pred{{Col: ci, Range: true, Lo: p, Hi: p}, {Col: ci, Lo: p}}}
		if s, err := tb.Read(view, plan); err != nil || !slices.Equal(s.Rows, want) {
			t.Fatalf("%s: %s query(= %v) = %v, %v, want %v", at, col, p, s.Rows, err, want)
		}
		// Exact over the deltas; the main part is exact when indexed and
		// the uniform guess otherwise.
		est := 0
		for slot, e := range stored {
			if e.v == p && (indexed || slot >= st.MainRows) {
				est++
			}
		}
		if !indexed && st.UniqueMain > 0 {
			est += st.MainRows / st.UniqueMain
		}
		tb.mu.RLock()
		q, err := tb.cols[ci].bind(Pred{Col: ci, Lo: p})
		if err != nil {
			t.Fatal(err)
		}
		got, idx := q.estimate()
		tb.mu.RUnlock()
		if got != est || idx != indexed {
			t.Fatalf("%s: %s estimate(= %v) = %d, %v, want %d, %v", at, col, p, got, idx, est, indexed)
		}
	}
	for i := 0; i < len(probes); i += max(1, len(probes)/6) {
		lo, hi := probes[i], probes[min(i+len(probes)/4, len(probes)-1)]
		want := where(func(v V) bool { return v >= lo && v <= hi })
		if got := h.RangeAt(view, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("%s: %s RangeAt(%v, %v) = %v, want %v", at, col, lo, hi, got, want)
		}
	}

	// Scans: the whole column, then one stopped three quarters in.
	var scanned []entry
	h.ScanAt(view, func(row int, v V) bool {
		scanned = append(scanned, entry{row, v})
		return true
	})
	if !slices.Equal(scanned, visible) {
		t.Fatalf("%s: %s ScanAt = %v, want %v", at, col, scanned, visible)
	}
	stop := len(visible) * 3 / 4
	scanned = scanned[:0]
	h.ScanAt(view, func(row int, v V) bool {
		scanned = append(scanned, entry{row, v})
		return len(scanned) < stop
	})
	if !slices.Equal(scanned, visible[:stop]) {
		t.Fatalf("%s: %s ScanAt stopped at %d rows, want %d", at, col, len(scanned), stop)
	}

	// Aggregates over the visible rows.
	var sum uint64
	for _, e := range visible {
		sum += uint64(e.v)
	}
	if got := h.SumAt(view); got != sum {
		t.Fatalf("%s: %s SumAt = %d, want %d", at, col, got, sum)
	}
	vals := make([]V, len(visible))
	for i, e := range visible {
		vals[i] = e.v
	}
	mn, okMin := h.MinAt(view)
	mx, okMax := h.MaxAt(view)
	if len(vals) == 0 {
		if okMin || okMax {
			t.Fatalf("%s: %s MinAt/MaxAt found %v, %v with no row visible", at, col, mn, mx)
		}
	} else if !okMin || !okMax || mn != slices.Min(vals) || mx != slices.Max(vals) {
		t.Fatalf("%s: %s MinAt/MaxAt = %v (%v), %v (%v), want %v, %v",
			at, col, mn, okMin, mx, okMax, slices.Min(vals), slices.Max(vals))
	}

	// View-independent reads over every stored version.
	for _, e := range stored {
		if got, err := h.Get(e.id); err != nil || got != e.v {
			t.Fatalf("%s: %s Get(%d) = %v, %v, want %v", at, col, e.id, got, err, e.v)
		}
	}
	if got := h.Distinct(); got != len(seen) {
		t.Fatalf("%s: %s Distinct = %d, want %d", at, col, got, len(seen))
	}
}

// checkReclaimed checks that every read path refuses a view the GC has
// passed: Read and VisibleAt return ErrReclaimed, ScanAt returns it before
// its callback runs, and the reads that cannot return an error
// (ValidRowsAt, the typed *At reads) panic with it.
func checkReclaimed[V interface{ ~uint32 | ~uint64 }](t *testing.T, h *tcol[V], view View, at string) {
	t.Helper()
	for _, p := range []Plan{{Reduce: Count}, {Reduce: Rows}, {Reduce: Sum, Col: h.col}, {Preds: []Pred{{Col: h.col, Lo: V(1)}}}} {
		if _, err := h.t.Read(view, p); !errors.Is(err, ErrReclaimed) {
			t.Fatalf("%s: Read(%+v) at reclaimed epoch %d: %v, want ErrReclaimed", at, p, view.Epoch(), err)
		}
	}
	if _, err := h.t.VisibleAt(view, 0); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("%s: VisibleAt at reclaimed epoch %d: %v, want ErrReclaimed", at, view.Epoch(), err)
	}
	if _, err := ScanAt(h.t, view, h.col, func(int, V) bool { t.Fatalf("%s: ScanAt ran its callback", at); return false }); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("%s: ScanAt at reclaimed epoch %d: %v, want ErrReclaimed", at, view.Epoch(), err)
	}
	for name, read := range map[string]func(){
		"ValidRowsAt": func() { h.t.ValidRowsAt(view) },
		"LookupAt":    func() { h.LookupAt(view, 1) },
	} {
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, ErrReclaimed) {
					t.Fatalf("%s: %s at reclaimed epoch %d panicked with %v, want ErrReclaimed", at, name, view.Epoch(), err)
				}
			}()
			read()
		}()
	}
}
