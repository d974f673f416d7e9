package table

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// eq and between build Plan predicates on the named column.
func eq(tb *Table, col string, v any) Pred {
	ci, _ := tb.schema.Index(col)
	return Pred{Col: ci, Lo: v}
}

func between(tb *Table, col string, lo, hi any) Pred {
	ci, _ := tb.schema.Index(col)
	return Pred{Col: ci, Range: true, Lo: lo, Hi: hi}
}

// buildSeedTable returns a merged table with a wide-spread column "k"
// (~1000 distinct), a narrow one "g" (10 distinct), and a string column
// "s" (3 distinct).
func buildSeedTable(t *testing.T) *Table {
	t.Helper()
	tb, err := New("seed", Schema{
		{Name: "k", Type: Uint64},
		{Name: "g", Type: Uint64},
		{Name: "s", Type: String},
	})
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"x", "y", "z"}
	for i := 0; i < 10000; i++ {
		if _, err := tb.Insert([]any{uint64(i % 1000), uint64(i % 10), tags[i%3]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// seedOf returns the predicate Read would drive with.
func seedOf(t *testing.T, tb *Table, preds []Pred) int {
	t.Helper()
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	var conds []cond
	for _, p := range preds {
		c, err := tb.cols[p.Col].bind(p)
		if err != nil {
			t.Fatal(err)
		}
		conds = append(conds, c)
	}
	drive, _, _ := tb.chooseSeed(conds)
	return drive
}

// TestChooseSeedNarrowestSpread pins the unindexed choice: among plain
// equalities the narrowest dictionary spread (fewest expected rows) drives,
// regardless of predicate order.
func TestChooseSeedNarrowestSpread(t *testing.T) {
	tb := buildSeedTable(t)
	preds := []Pred{
		eq(tb, "s", "x"),         // ~3333 rows
		eq(tb, "g", uint64(4)),   // ~1000 rows
		eq(tb, "k", uint64(123)), // ~10 rows
	}
	if got := seedOf(t, tb, preds); got != 2 {
		t.Fatalf("chooseSeed = %d, want 2 (k: narrowest spread)", got)
	}
	// Order independence.
	preds[0], preds[2] = preds[2], preds[0]
	if got := seedOf(t, tb, preds); got != 0 {
		t.Fatalf("chooseSeed = %d, want 0 after reorder", got)
	}
}

// TestChooseSeedPrefersIndex pins the indexed choice: once a column is
// indexed its seed needs no scan, so it beats an unindexed column with a
// smaller expected result as long as the scan cost dominates.
func TestChooseSeedPrefersIndex(t *testing.T) {
	tb := buildSeedTable(t)
	preds := []Pred{
		eq(tb, "g", uint64(4)),   // ~1000 rows
		eq(tb, "k", uint64(123)), // ~10 rows, but needs a scan
	}
	if got := seedOf(t, tb, preds); got != 1 {
		t.Fatalf("pre-index chooseSeed = %d, want 1 (k)", got)
	}
	if err := tb.CreateIndex("g"); err != nil {
		t.Fatal(err)
	}
	if got := seedOf(t, tb, preds); got != 0 {
		t.Fatalf("post-index chooseSeed = %d, want 0 (g is indexed)", got)
	}
	// Index k too: both indexed, exact counts decide — k wins again.
	if err := tb.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if got := seedOf(t, tb, preds); got != 1 {
		t.Fatalf("both indexed chooseSeed = %d, want 1 (k: fewer postings)", got)
	}
}

// TestChooseSeedRange pins range estimation: a narrow Between on the wide
// column beats a wide Between on the narrow column.
func TestChooseSeedRange(t *testing.T) {
	tb := buildSeedTable(t)
	preds := []Pred{
		between(tb, "g", uint64(0), uint64(8)),   // ~9000 rows
		between(tb, "k", uint64(10), uint64(19)), // ~100 rows
	}
	if got := seedOf(t, tb, preds); got != 1 {
		t.Fatalf("chooseSeed = %d, want 1 (narrow range on k)", got)
	}
}

// TestChooseSeedBadFilter: a predicate that cannot be bound — an unknown
// column, a value or bound the column cannot hold — fails Read in any
// position, before any seed runs.
func TestChooseSeedBadFilter(t *testing.T) {
	tb := buildSeedTable(t)
	good := eq(tb, "k", uint64(5))
	for _, bad := range []Pred{
		{Col: 7, Lo: uint64(1)},
		{Col: -1, Lo: uint64(1)},
		eq(tb, "k", "str"),
		eq(tb, "s", uint64(1)),
		between(tb, "g", uint64(1), "x"),
		eq(tb, "k", nil),
	} {
		for _, preds := range [][]Pred{{bad}, {bad, good}, {good, bad}} {
			idx0, scan0 := tb.RoutingCounts()
			if _, err := tb.Read(Latest(), Plan{Preds: preds}); err == nil {
				t.Fatalf("Read(%+v) accepted", preds)
			}
			if idx, scan := tb.RoutingCounts(); idx != idx0 || scan != scan0 {
				t.Fatalf("Read(%+v) seeded before failing", preds)
			}
		}
	}
	if all, err := tb.Read(Latest(), Plan{}); err != nil || len(all.Rows) != tb.ValidRows() {
		t.Fatalf("Read without predicates = %d rows, %v, want every one of %d", len(all.Rows), err, tb.ValidRows())
	}
	if _, err := tb.Read(Latest(), Plan{Preds: []Pred{good}, Project: []int{3}}); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("Read projecting an unknown column: %v", err)
	}
	for _, r := range []Reduce{Sum, MinMax} {
		if _, err := tb.Read(Latest(), Plan{Reduce: r, Col: 3}); !errors.Is(err, ErrNoColumn) {
			t.Fatalf("reduction %d over an unknown column: %v", r, err)
		}
		for _, preds := range [][]Pred{nil, {good}} {
			if _, err := tb.Read(Latest(), Plan{Preds: preds, Reduce: r, Col: 2}); !errors.Is(err, ErrColumnType) {
				t.Fatalf("reduction %d over the string column: %v", r, err)
			}
		}
	}
	if _, err := tb.Read(Latest(), Plan{Preds: []Pred{eq(tb, "k", "str")}}); !errors.Is(err, ErrColumnType) {
		t.Fatalf("Read with a mistyped value: %v", err)
	}
}

// TestIndexedQueryDifferential: query results are identical before and
// after indexing every column.
func TestIndexedQueryDifferential(t *testing.T) {
	tb := buildSeedTable(t)
	// Leave a delta tail so both index paths (posting lists + CSB+ range)
	// are exercised.
	for i := 0; i < 500; i++ {
		if _, err := tb.Insert([]any{uint64(i % 1000), uint64(i % 10), "y"}); err != nil {
			t.Fatal(err)
		}
	}
	queries := [][]Pred{
		{eq(tb, "k", uint64(77)), eq(tb, "g", uint64(7))},
		{between(tb, "g", uint64(2), uint64(4)), eq(tb, "s", "z")},
		{between(tb, "k", uint64(900), uint64(950))},
	}
	var before []*Selection
	for _, q := range queries {
		r, err := tb.Read(Latest(), Plan{Preds: q})
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, r)
	}
	for _, col := range []string{"k", "g", "s"} {
		if err := tb.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	for qi, q := range queries {
		r, err := tb.Read(Latest(), Plan{Preds: q})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.Rows, before[qi].Rows) {
			t.Fatalf("query %d: %d rows indexed vs %d unindexed", qi, len(r.Rows), len(before[qi].Rows))
		}
	}
}

// checkSelect runs Read at one view with every conjunction of an
// equality or range on id and an equality or range on qty — each alone
// and each pair — projecting every column in reverse order, and compares
// the rows and values with the scalar reference: the stored versions in
// slot order (RowIDs, Row) whose begin/end epochs admit the view's epoch.
func checkSelect(t *testing.T, tb *Table, view View, at string) {
	t.Helper()
	begin, end := tb.RowEpochs()
	e := view.Epoch()
	type entry struct {
		id  int
		row []any
	}
	var visible []entry
	for slot, id := range tb.RowIDs() {
		if begin[slot] <= e && (end[slot] == 0 || end[slot] > e) {
			row, err := tb.Row(id)
			if err != nil {
				t.Fatal(err)
			}
			visible = append(visible, entry{id, row})
		}
	}
	if len(visible) == 0 {
		t.Fatalf("%s: no visible rows", at)
	}
	// Bounds taken from visible rows, an updated row's new values (5012,
	// 212), a value no row holds and a reversed range.
	mid := visible[len(visible)/2].row
	idv, qtyv := mid[0].(uint64), mid[1].(uint32)
	type pred struct {
		p    Pred
		keep func(row []any) bool
	}
	idEq := func(v uint64) pred {
		return pred{eq(tb, "id", v), func(r []any) bool { return r[0].(uint64) == v }}
	}
	idIn := func(lo, hi uint64) pred {
		return pred{between(tb, "id", lo, hi), func(r []any) bool { x := r[0].(uint64); return x >= lo && x <= hi }}
	}
	qtyEq := func(v uint32) pred {
		return pred{eq(tb, "qty", v), func(r []any) bool { return r[1].(uint32) == v }}
	}
	qtyIn := func(lo, hi uint32) pred {
		return pred{between(tb, "qty", lo, hi), func(r []any) bool { x := r[1].(uint32); return x >= lo && x <= hi }}
	}
	ids := []pred{idEq(idv), idEq(5012), idEq(1 << 40), idIn(idv/2, idv+300), idIn(0, 5400), idIn(700, 300)}
	qtys := []pred{qtyEq(qtyv), qtyEq(212), qtyIn(qtyv/2, qtyv+20), qtyIn(0, 400), qtyIn(60, 10)}
	var queries [][]pred
	for _, p := range ids {
		queries = append(queries, []pred{p})
		for _, q := range qtys {
			queries = append(queries, []pred{p, q}, []pred{q, p})
		}
	}
	for _, q := range qtys {
		queries = append(queries, []pred{q})
	}
	queries = append(queries, nil) // every visible row
	project := []int{2, 1, 0}
	for _, q := range queries {
		preds := make([]Pred, len(q))
		var wantRows []int
		var wantVals [][]any
		for _, x := range visible {
			keep := true
			for _, p := range q {
				keep = keep && p.keep(x.row)
			}
			if keep {
				wantRows = append(wantRows, x.id)
				wantVals = append(wantVals, []any{x.row[2], x.row[1], x.row[0]})
			}
		}
		for i, p := range q {
			preds[i] = p.p
		}
		got, err := tb.Read(view, Plan{Preds: preds, Project: project})
		if err != nil {
			t.Fatalf("%s: Read(%+v): %v", at, preds, err)
		}
		if !slices.Equal(got.Rows, wantRows) {
			t.Fatalf("%s: Read(%+v) rows = %v, want %v", at, preds, got.Rows, wantRows)
		}
		if len(got.Values) != len(wantVals) {
			t.Fatalf("%s: Read(%+v): %d projected rows, want %d", at, preds, len(got.Values), len(wantVals))
		}
		for i := range wantVals {
			if !slices.Equal(got.Values[i], wantVals[i]) {
				t.Fatalf("%s: Read(%+v) row %d = %v, want %v", at, preds, got.Rows[i], got.Values[i], wantVals[i])
			}
		}
		plain, err := tb.Read(view, Plan{Preds: preds})
		if err != nil || !slices.Equal(plain.Rows, wantRows) || plain.Values != nil {
			t.Fatalf("%s: Read(%+v) without projection = %+v, %v", at, preds, plain, err)
		}
		limited, err := tb.Read(view, Plan{Preds: preds, Limit: 2})
		if err != nil || !slices.Equal(limited.Rows, wantRows[:min(2, len(wantRows))]) {
			t.Fatalf("%s: Read(%+v) limited to 2 = %+v, %v", at, preds, limited, err)
		}
		checkReduce(t, tb, view, preds, wantVals, at)
	}
}

// checkReduce runs the Count, Sum and MinMax reductions of preds at one
// view over id and qty and compares them with the matching rows' values
// (projected as product, qty, id).
func checkReduce(t *testing.T, tb *Table, view View, preds []Pred, rows [][]any, at string) {
	t.Helper()
	for col, pos := range []int{2, 1} {
		var want Selection
		for _, r := range rows {
			x, ok := r[pos].(uint64)
			if !ok {
				x = uint64(r[pos].(uint32))
			}
			want.Sum += x
			if !want.Found || x < want.Min {
				want.Min = x
			}
			if !want.Found || x > want.Max {
				want.Max = x
			}
			want.Found = true
		}
		count, err := tb.Read(view, Plan{Preds: preds, Reduce: Count})
		if err != nil || count.Count != len(rows) {
			t.Fatalf("%s: Count(%+v) = %+v, %v, want %d", at, preds, count, err, len(rows))
		}
		sum, err := tb.Read(view, Plan{Preds: preds, Reduce: Sum, Col: col})
		if err != nil || sum.Sum != want.Sum {
			t.Fatalf("%s: Sum(%+v) of column %d = %+v, %v, want %d", at, preds, col, sum, err, want.Sum)
		}
		mm, err := tb.Read(view, Plan{Preds: preds, Reduce: MinMax, Col: col})
		if err != nil || mm.Min != want.Min || mm.Max != want.Max || mm.Found != want.Found {
			t.Fatalf("%s: MinMax(%+v) of column %d = %+v, %v, want %d, %d, %v",
				at, preds, col, mm, err, want.Min, want.Max, want.Found)
		}
	}
}
