package table

import (
	"context"
	"errors"
	"slices"
	"testing"

	"hyrise/internal/colstore"
)

// sameTable requires b to hold everything an Image of a carries: rows,
// values, ids, epochs, the main/delta split and the GC counters.
func sameTable(t *testing.T, a, b *Table) {
	t.Helper()
	if !slices.Equal(a.RowIDs(), b.RowIDs()) {
		t.Fatalf("row ids %v vs %v", a.RowIDs(), b.RowIDs())
	}
	ab, ae := a.RowEpochs()
	bb, be := b.RowEpochs()
	if !slices.Equal(ab, bb) || !slices.Equal(ae, be) {
		t.Fatal("row epochs differ")
	}
	if a.MainRows() != b.MainRows() || a.DeltaRows() != b.DeltaRows() || a.ValidRows() != b.ValidRows() {
		t.Fatalf("split main=%d delta=%d valid=%d vs main=%d delta=%d valid=%d",
			a.MainRows(), a.DeltaRows(), a.ValidRows(), b.MainRows(), b.DeltaRows(), b.ValidRows())
	}
	if a.NextRowID() != b.NextRowID() || a.RetiredRows() != b.RetiredRows() ||
		a.ReclaimedBytes() != b.ReclaimedBytes() || a.GCWatermark() != b.GCWatermark() {
		t.Fatalf("GC state %d/%d/%d/%d vs %d/%d/%d/%d",
			a.NextRowID(), a.RetiredRows(), a.ReclaimedBytes(), a.GCWatermark(),
			b.NextRowID(), b.RetiredRows(), b.ReclaimedBytes(), b.GCWatermark())
	}
	for id := 0; id < a.NextRowID(); id++ {
		ra, ea := a.Row(id)
		rb, eb := b.Row(id)
		if (ea == nil) != (eb == nil) || errors.Is(ea, ErrRowInvalid) != errors.Is(eb, ErrRowInvalid) || !slices.Equal(ra, rb) {
			t.Fatalf("row %d: %v (%v) vs %v (%v)", id, ra, ea, rb, eb)
		}
	}
}

// adopted returns a fresh partition on tb's clock that adopted tb's image
// and installed its first column's main as is, not a rebuilt copy.
func adopted(t *testing.T, tb *Table) *Table {
	t.Helper()
	fresh, err := NewWithClock(tb.Name(), tb.Schema(), tb.Clock())
	if err != nil {
		t.Fatal(err)
	}
	img := tb.Image()
	if err := fresh.Adopt(img); err != nil {
		t.Fatal(err)
	}
	if fresh.cols[0].(*typedColumn[uint64]).main != img.Columns[0].(Values[uint64]).Main {
		t.Fatal("Adopt rebuilt the main instead of installing it")
	}
	return fresh
}

// TestImageRoundTripMidMerge captures a partition between a merge's freeze
// and its commit, when the rows sit in three places — main, frozen delta
// and second delta: the adopted copy must equal the source, whether the
// merge then aborts or never happened.
func TestImageRoundTripMidMerge(t *testing.T) {
	tb := newTestTable(t)
	fillRandom(t, tb, 300, 7)
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	fillRandom(t, tb, 40, 8) // the delta the merge freezes
	tb.Snapshot().Release()  // later stamps get their own epoch
	// Freeze exactly as Merge's phase 1 does, then stay there.
	tb.mergeMu.Lock()
	tb.mu.Lock()
	tb.merging = true
	for _, c := range tb.cols {
		c.beginMerge()
	}
	tb.mu.Unlock()
	fillRandom(t, tb, 25, 9) // lands in the second delta
	if err := tb.Delete(5); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Update(310, map[string]any{"qty": uint32(77)}); err != nil {
		t.Fatal(err)
	}

	img := tb.Image()
	col := img.Columns[0].(Values[uint64])
	if col.Main.Len() != 300 || len(col.Plain[0]) != 40 || len(col.Plain[1]) != 26 || img.MainRows != 300 {
		t.Fatalf("image segments main=%d frozen=%d second=%d, MainRows=%d",
			col.Main.Len(), len(col.Plain[0]), len(col.Plain[1]), img.MainRows)
	}
	fresh := adopted(t, tb)
	sameTable(t, tb, fresh)

	// Writes after the capture touch neither the image nor the copy.
	fillRandom(t, tb, 10, 10)
	if got := img.Columns[0].(Values[uint64]).Len(); got != 366 || fresh.Rows() != 366 {
		t.Fatalf("image grew to %d values, copy to %d rows", got, fresh.Rows())
	}

	// Roll the merge back as Merge's abort path does; the source still
	// equals a copy taken now, and the copy merges like any partition.
	tb.mu.Lock()
	for _, c := range tb.cols {
		c.abortMerge()
	}
	tb.merging = false
	tb.mu.Unlock()
	tb.mergeMu.Unlock()
	fresh = adopted(t, tb)
	sameTable(t, tb, fresh)
	if fresh.MergeGeneration() != 0 || len(fresh.LastMergeReport().Columns) != 0 {
		t.Fatalf("adoption merged: generation %d, report %+v", fresh.MergeGeneration(), fresh.LastMergeReport())
	}
	for _, x := range []*Table{tb, fresh} {
		if _, err := x.Merge(context.Background(), MergeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	sameTable(t, tb, fresh)
}

// TestImageRoundTripAfterGC: ids a reclaiming merge retired stay retired
// in the copy, and both sides hand out the same next id.
func TestImageRoundTripAfterGC(t *testing.T) {
	tb := newTestTable(t)
	fillRandom(t, tb, 100, 3)
	for id := 0; id < 30; id++ {
		if _, err := tb.Update(id, map[string]any{"qty": uint32(900 + id)}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := tb.Merge(context.Background(), MergeOptions{})
	if err != nil || rep.RowsReclaimed != 30 {
		t.Fatalf("merge reclaimed %d (%v), want 30", rep.RowsReclaimed, err)
	}
	if _, err := tb.Update(50, map[string]any{"qty": uint32(1)}); err != nil {
		t.Fatal(err)
	}
	fresh := adopted(t, tb)
	sameTable(t, tb, fresh)
	if _, err := fresh.Row(0); !errors.Is(err, ErrRowInvalid) {
		t.Fatalf("retired id on the copy: %v want ErrRowInvalid", err)
	}
	a, _ := tb.Insert([]any{uint64(1), uint32(1), "z"})
	b, _ := fresh.Insert([]any{uint64(1), uint32(1), "z"})
	if a != b {
		t.Fatalf("next id %d on the source, %d on the copy", a, b)
	}
	// An index declared before adoption serves from the next merge on;
	// until then reads scan the adopted main.
	indexed := newTestTable(t)
	if err := indexed.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	if err := indexed.Adopt(tb.Image()); err != nil {
		t.Fatal(err)
	}
	qty, _ := indexed.schema.Index("qty")
	for _, wantIndexed := range []int{0, 1} {
		got, err := indexed.Read(Latest(), Plan{Preds: []Pred{{Col: qty, Lo: uint32(900)}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != 1 || got.Indexed != wantIndexed {
			t.Fatalf("lookup on the copy: %v (indexed %v, want %v)", got.Rows, got.Indexed, wantIndexed)
		}
		if _, err := indexed.Merge(context.Background(), MergeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdoptRejects feeds Adopt one violated invariant at a time: each is an
// error, and the partition stays empty and adoptable.
func TestAdoptRejects(t *testing.T) {
	src := newTestTable(t)
	fillRandom(t, src, 20, 5)
	if _, err := src.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	fillRandom(t, src, 5, 6)
	cases := map[string]func(img *Image){
		"ids not ascending":   func(img *Image) { img.IDs[3], img.IDs[4] = img.IDs[4], img.IDs[3] },
		"duplicate id":        func(img *Image) { img.IDs[4] = img.IDs[3] },
		"negative id":         func(img *Image) { img.IDs[0] = -1 },
		"id at next id":       func(img *Image) { img.IDs[24] = img.NextID },
		"short begin epochs":  func(img *Image) { img.Begin = img.Begin[:24] },
		"long end epochs":     func(img *Image) { img.End = append(img.End, 0) },
		"begin decreases":     func(img *Image) { img.Begin[7] = img.Begin[24] + 1 },
		"main rows over rows": func(img *Image) { img.MainRows = 26 },
		"negative main rows":  func(img *Image) { img.MainRows = -1 },
		"retired over next":   func(img *Image) { img.Retired = img.NextID + 1 },
		"negative retired":    func(img *Image) { img.Retired = -1 },
		"missing column":      func(img *Image) { img.Columns = img.Columns[:2] },
		"short column": func(img *Image) {
			v := img.Columns[2].(Values[string])
			v.Plain[0] = v.Plain[0][:len(v.Plain[0])-1]
			img.Columns[2] = v
		},
		"column of another type": func(img *Image) {
			img.Columns[1] = Values[uint64]{Main: colstore.Empty[uint64](), Plain: [][]uint64{make([]uint64, 25)}}
		},
		"column without a main": func(img *Image) {
			img.Columns[2] = Values[string]{Plain: [][]string{make([]string, 25)}}
		},
		"main of another length": func(img *Image) {
			v := img.Columns[2].(Values[string])
			v.Main, v.Plain[0] = colstore.Empty[string](), make([]string, 25)
			img.Columns[2] = v
		},
		"column not a Values": func(img *Image) { img.Columns[1] = make([]uint32, 25) },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			fresh := newTestTable(t)
			img := src.Image()
			corrupt(&img)
			if err := fresh.Adopt(img); err == nil {
				t.Fatal("adopted")
			}
			if fresh.Rows() != 0 || fresh.MainRows() != 0 || fresh.DeltaRows() != 0 || fresh.NextRowID() != 0 {
				t.Fatalf("rejected image left %d rows behind", fresh.Rows())
			}
			if err := fresh.Adopt(src.Image()); err != nil {
				t.Fatalf("partition not adoptable after a rejection: %v", err)
			}
			sameTable(t, src, fresh)
		})
	}
	if err := src.Adopt(src.Image()); err == nil {
		t.Fatal("a partition holding rows adopted an image")
	}
}
