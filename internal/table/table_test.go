package table

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hyrise/internal/core"
)

func testSchema() Schema {
	return Schema{
		{Name: "id", Type: Uint64},
		{Name: "qty", Type: Uint32},
		{Name: "product", Type: String},
	}
}

func newTestTable(t *testing.T) *Table {
	t.Helper()
	tb, err := New("sales", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		name   string
		schema Schema
		ok     bool
	}{
		{"valid", testSchema(), true},
		{"empty", Schema{}, false},
		{"dup", Schema{{Name: "a", Type: Uint64}, {Name: "a", Type: Uint32}}, false},
		{"unnamed", Schema{{Name: "", Type: Uint64}}, false},
		{"badtype", Schema{{Name: "a", Type: Type(99)}}, false},
	}
	for _, c := range cases {
		if err := c.schema.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: err=%v ok=%v", c.name, err, c.ok)
		}
	}
}

func TestInsertAndRow(t *testing.T) {
	tb := newTestTable(t)
	id, err := tb.Insert([]any{uint64(1), uint32(5), "widget"})
	if err != nil || id != 0 {
		t.Fatalf("Insert: id=%d err=%v", id, err)
	}
	id2, _ := tb.Insert([]any{uint64(2), uint32(7), "gadget"})
	if id2 != 1 {
		t.Fatalf("second id=%d", id2)
	}
	row, err := tb.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].(uint64) != 1 || row[1].(uint32) != 5 || row[2].(string) != "widget" {
		t.Fatalf("Row(0)=%v", row)
	}
	if tb.Rows() != 2 || tb.ValidRows() != 2 {
		t.Fatalf("Rows=%d Valid=%d", tb.Rows(), tb.ValidRows())
	}
	if tb.MainRows() != 0 || tb.DeltaRows() != 2 {
		t.Fatalf("Main=%d Delta=%d", tb.MainRows(), tb.DeltaRows())
	}
}

func TestInsertErrors(t *testing.T) {
	tb := newTestTable(t)
	if _, err := tb.Insert([]any{uint64(1)}); !errors.Is(err, ErrArity) {
		t.Fatalf("arity: %v", err)
	}
	if _, err := tb.Insert([]any{"x", uint32(1), "y"}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := tb.Insert([]any{uint64(1), uint64(1 << 40), "y"}); err == nil {
		t.Fatal("uint32 overflow accepted")
	}
	if _, err := tb.Insert([]any{-5, uint32(1), "y"}); err == nil {
		t.Fatal("negative accepted")
	}
	// A failed insert must not leave ragged columns.
	if tb.Rows() != 0 || tb.DeltaRows() != 0 {
		t.Fatalf("failed inserts mutated table: rows=%d delta=%d", tb.Rows(), tb.DeltaRows())
	}
}

func TestUpdateInsertOnly(t *testing.T) {
	tb := newTestTable(t)
	r0, _ := tb.Insert([]any{uint64(1), uint32(5), "widget"})
	r1, err := tb.Update(r0, map[string]any{"qty": uint32(9)})
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r0 {
		t.Fatal("update did not create a new version")
	}
	if tb.IsValid(r0) {
		t.Fatal("old version still valid")
	}
	if !tb.IsValid(r1) {
		t.Fatal("new version invalid")
	}
	// History remains queryable.
	old, _ := tb.Row(r0)
	if old[1].(uint32) != 5 {
		t.Fatalf("history lost: %v", old)
	}
	cur, _ := tb.Row(r1)
	if cur[1].(uint32) != 9 || cur[0].(uint64) != 1 || cur[2].(string) != "widget" {
		t.Fatalf("new version wrong: %v", cur)
	}
	// Updating the stale version fails.
	if _, err := tb.Update(r0, map[string]any{"qty": uint32(1)}); !errors.Is(err, ErrRowInvalid) {
		t.Fatalf("stale update: %v", err)
	}
	// Unknown column.
	if _, err := tb.Update(r1, map[string]any{"nope": uint32(1)}); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("unknown column: %v", err)
	}
}

func TestDelete(t *testing.T) {
	tb := newTestTable(t)
	r0, _ := tb.Insert([]any{uint64(1), uint32(5), "w"})
	if err := tb.Delete(r0); err != nil {
		t.Fatal(err)
	}
	if tb.IsValid(r0) {
		t.Fatal("still valid")
	}
	if err := tb.Delete(r0); !errors.Is(err, ErrRowInvalid) {
		t.Fatalf("double delete: %v", err)
	}
	if err := tb.Delete(99); !errors.Is(err, ErrRowRange) {
		t.Fatalf("range: %v", err)
	}
	if tb.ValidRows() != 0 || tb.Rows() != 1 {
		t.Fatal("counts wrong after delete")
	}
}

func fillRandom(t *testing.T, tb *Table, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	products := []string{"widget", "gadget", "sprocket", "gear", "cog"}
	for i := 0; i < n; i++ {
		_, err := tb.Insert([]any{
			rng.Uint64() % 1000,
			uint32(rng.Intn(100)),
			products[rng.Intn(len(products))],
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// snapshot captures all valid rows for invariance checks across merges.
// It walks the stable id list rather than a dense range: garbage
// collection retires ids, so live ids are not contiguous.
func snapshot(t *testing.T, tb *Table) map[int][]any {
	t.Helper()
	out := map[int][]any{}
	for _, r := range tb.RowIDs() {
		if tb.IsValid(r) {
			row, err := tb.Row(r)
			if err != nil {
				t.Fatal(err)
			}
			out[r] = row
		}
	}
	return out
}

// intraColumn reports which §6.2.1 scheme a committed merge ran: the
// per-column reports carry more than one thread exactly when the columns
// merged one after another, each parallelized internally.
func intraColumn(rep Report) bool { return rep.Columns[0].Threads > 1 }

func TestMergeBasic(t *testing.T) {
	// Three columns: two threads merge them by column tasks, four within
	// each column.
	for _, threads := range []int{2, 4} {
		tb := newTestTable(t)
		fillRandom(t, tb, 500, 1)
		before := snapshot(t, tb)
		rep, err := tb.Merge(context.Background(), MergeOptions{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if intraColumn(rep) != (threads > tb.NumColumns()) {
			t.Fatalf("%d threads over %d columns ran %d threads per column",
				threads, tb.NumColumns(), rep.Columns[0].Threads)
		}
		if rep.RowsMerged != 500 || rep.MainRowsAfter != 500 {
			t.Fatalf("report %+v", rep)
		}
		if len(rep.Columns) != 3 {
			t.Fatalf("columns %d", len(rep.Columns))
		}
		if tb.MainRows() != 500 || tb.DeltaRows() != 0 {
			t.Fatalf("main=%d delta=%d", tb.MainRows(), tb.DeltaRows())
		}
		after := snapshot(t, tb)
		if len(after) != len(before) {
			t.Fatalf("row count changed across merge")
		}
		for r, want := range before {
			got := after[r]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d col %d: %v != %v", r, i, got[i], want[i])
				}
			}
		}
		if tb.MergeGeneration() != 1 {
			t.Fatalf("gen=%d", tb.MergeGeneration())
		}
	}
}

func TestMergePreservesInvalidations(t *testing.T) {
	tb := newTestTable(t)
	fillRandom(t, tb, 100, 2)
	tb.Delete(10)
	tb.Update(20, map[string]any{"qty": uint32(77)})
	before := snapshot(t, tb)
	rep, err := tb.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := snapshot(t, tb)
	if tb.IsValid(10) || tb.IsValid(20) {
		t.Fatal("invalidations lost")
	}
	if len(after) != len(before) {
		t.Fatal("valid row count changed")
	}
	// With no pinned view, the merge garbage-collects both dead versions:
	// their ids are retired and stay invalid forever.
	if rep.RowsReclaimed != 2 || tb.RetiredRows() != 2 {
		t.Fatalf("reclaimed %d retired %d, want 2/2", rep.RowsReclaimed, tb.RetiredRows())
	}
	if _, err := tb.Row(10); !errors.Is(err, ErrRowInvalid) {
		t.Fatalf("Row(reclaimed) err=%v want ErrRowInvalid", err)
	}
}

func TestRepeatedMerges(t *testing.T) {
	tb := newTestTable(t)
	for gen := 1; gen <= 4; gen++ {
		fillRandom(t, tb, 200, int64(gen))
		if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
			t.Fatal(err)
		}
		if tb.MainRows() != 200*gen {
			t.Fatalf("gen %d: main=%d", gen, tb.MainRows())
		}
		if tb.MergeGeneration() != gen {
			t.Fatalf("gen=%d", tb.MergeGeneration())
		}
	}
}

func TestMergeEmptyDelta(t *testing.T) {
	tb := newTestTable(t)
	fillRandom(t, tb, 50, 3)
	tb.Merge(context.Background(), MergeOptions{})
	rep, err := tb.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsMerged != 0 || tb.MainRows() != 50 {
		t.Fatalf("empty merge: %+v", rep)
	}
}

func TestMergeAbort(t *testing.T) {
	tb := newTestTable(t)
	fillRandom(t, tb, 300, 4)
	before := snapshot(t, tb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before it starts: must abort cleanly
	rep, err := tb.Merge(ctx, MergeOptions{})
	if err == nil || !rep.Aborted {
		t.Fatalf("expected abort, got %+v err=%v", rep, err)
	}
	if tb.MainRows() != 0 || tb.DeltaRows() != 300 {
		t.Fatalf("abort mutated table: main=%d delta=%d", tb.MainRows(), tb.DeltaRows())
	}
	after := snapshot(t, tb)
	for r, want := range before {
		got := after[r]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d changed after abort", r)
			}
		}
	}
	// A subsequent merge succeeds.
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if tb.MainRows() != 300 {
		t.Fatal("post-abort merge failed")
	}
}

func TestHandleLookup(t *testing.T) {
	tb := newTestTable(t)
	tb.Insert([]any{uint64(10), uint32(1), "a"})
	tb.Insert([]any{uint64(20), uint32(2), "b"})
	tb.Insert([]any{uint64(10), uint32(3), "c"})
	h, err := colOf[uint64](tb, "id")
	if err != nil {
		t.Fatal(err)
	}
	got := h.Lookup(10)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Lookup(10)=%v", got)
	}
	// After merge the same query must return the same rows.
	tb.Merge(context.Background(), MergeOptions{})
	got = h.Lookup(10)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("post-merge Lookup(10)=%v", got)
	}
	// Lookup spans main (merged) and fresh delta rows.
	tb.Insert([]any{uint64(10), uint32(4), "d"})
	got = h.Lookup(10)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("mixed Lookup(10)=%v", got)
	}
	// Invalidated rows are filtered.
	tb.Delete(0)
	got = h.Lookup(10)
	if len(got) != 2 || got[0] != 2 {
		t.Fatalf("filtered Lookup(10)=%v", got)
	}
	if n := h.CountEqual(10); n != 2 {
		t.Fatalf("CountEqual=%d", n)
	}
}

func TestHandleTypeMismatch(t *testing.T) {
	tb := newTestTable(t)
	if _, err := colOf[uint64](tb, "product"); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := colOf[uint64](tb, "missing"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("missing column: %v", err)
	}
}

func TestHandleRangeAndScan(t *testing.T) {
	tb := newTestTable(t)
	for i := 0; i < 100; i++ {
		tb.Insert([]any{uint64(i), uint32(i % 10), "p"})
	}
	// Merge half so the query spans main and delta.
	tb.Merge(context.Background(), MergeOptions{})
	for i := 100; i < 200; i++ {
		tb.Insert([]any{uint64(i), uint32(i % 10), "p"})
	}
	h, _ := colOf[uint64](tb, "id")
	rows := h.Range(95, 104)
	if len(rows) != 10 {
		t.Fatalf("Range: %v", rows)
	}
	sort.Ints(rows)
	for i, r := range rows {
		if r != 95+i {
			t.Fatalf("Range rows %v", rows)
		}
	}
	var n int
	var sum uint64
	h.Scan(func(row int, v uint64) bool {
		n++
		sum += v
		return true
	})
	if n != 200 || sum != 199*200/2 {
		t.Fatalf("Scan n=%d sum=%d", n, sum)
	}
	// Early stop.
	n = 0
	h.Scan(func(int, uint64) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop n=%d", n)
	}
}

func TestNumericHandleAggregates(t *testing.T) {
	tb := newTestTable(t)
	for i := 1; i <= 10; i++ {
		tb.Insert([]any{uint64(i), uint32(i), "p"})
	}
	h, err := colOf[uint32](tb, "qty")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Sum(); got != 55 {
		t.Fatalf("Sum=%d", got)
	}
	if mn, ok := h.Min(); !ok || mn != 1 {
		t.Fatalf("Min=%d,%v", mn, ok)
	}
	if mx, ok := h.Max(); !ok || mx != 10 {
		t.Fatalf("Max=%d,%v", mx, ok)
	}
	tb.Delete(9) // removes value 10
	if mx, _ := h.Max(); mx != 9 {
		t.Fatalf("Max after delete=%d", mx)
	}
	if got := h.Distinct(); got != 10 {
		// Distinct counts stored versions, including the deleted one.
		t.Fatalf("Distinct=%d", got)
	}
}

func TestStats(t *testing.T) {
	tb := newTestTable(t)
	fillRandom(t, tb, 100, 6)
	tb.Merge(context.Background(), MergeOptions{})
	fillRandom(t, tb, 20, 7)
	s := tb.Stats()
	if s.Rows != 120 || s.MainRows != 100 || s.DeltaRows != 20 {
		t.Fatalf("stats %+v", s)
	}
	if len(s.Columns) != 3 {
		t.Fatalf("columns %d", len(s.Columns))
	}
	if s.SizeBytes <= 0 {
		t.Fatal("SizeBytes")
	}
	for _, cs := range s.Columns {
		if cs.MainRows != 100 || cs.DeltaRows != 20 {
			t.Fatalf("column stats %+v", cs)
		}
		if cs.LastMerge.NM != 0 { // first merge had empty main
			t.Fatalf("LastMerge.NM=%d", cs.LastMerge.NM)
		}
	}
	if tb.DeltaFraction() != 0.2 {
		t.Fatalf("DeltaFraction=%f", tb.DeltaFraction())
	}
}

func TestLastMergeReport(t *testing.T) {
	tb := newTestTable(t)
	fillRandom(t, tb, 50, 8)
	rep, _ := tb.Merge(context.Background(), MergeOptions{Threads: 2})
	got := tb.LastMergeReport()
	if got.RowsMerged != rep.RowsMerged || got.Wall != rep.Wall {
		t.Fatal("LastMergeReport mismatch")
	}
	if got.TotalStepTime(func(s core.Stats) time.Duration { return s.Step2 }) < 0 {
		t.Fatal("negative step time")
	}
}

// TestSizeBytesBitmap pins the row metadata SizeBytes counts: 8 bytes of
// stable id and 8 of begin epoch per row, the main's dead bitmap at one
// bit per main row in whole words, 12 bytes per dead main row for its
// exception (slot and end), and 8 bytes of end epoch per delta row — no
// end epoch for a main row.
func TestSizeBytesBitmap(t *testing.T) {
	const n, dead, delta = 1000, 37, 25
	tb := newTestTable(t)
	fillRandom(t, tb, n, 1)
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < dead; id++ {
		if err := tb.Delete(id * 7); err != nil {
			t.Fatal(err)
		}
	}
	fillRandom(t, tb, delta, 2)
	cols := 0
	for _, c := range tb.Stats().Columns {
		cols += c.SizeBytes
	}
	rows := n + delta
	want := cols + 8*rows + 8*rows + 8*((n+63)/64) + 12*dead + 8*delta
	if got := tb.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d (columns %d)", got, want, cols)
	}
	if got := tb.Stats().SizeBytes; got != want {
		t.Fatalf("Stats().SizeBytes = %d, want %d", got, want)
	}
}
