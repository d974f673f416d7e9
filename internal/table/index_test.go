package table

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// newIndexTestTable returns a table with two uint64 columns carrying
// identical values ("a" indexed by the caller, "b" the scan shadow) and a
// string column to exercise non-numeric indexes.
func newIndexTestTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New("idx", Schema{
		{Name: "a", Type: Uint64},
		{Name: "b", Type: Uint64},
		{Name: "s", Type: String},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func insertIdxRow(t *testing.T, tbl *Table, v uint64) int {
	t.Helper()
	id, err := tbl.Insert([]any{v, v, fmt.Sprintf("s%04d", v%97)})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustMerge(t *testing.T, tbl *Table) {
	t.Helper()
	if _, err := tbl.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateIndexBasics(t *testing.T) {
	tbl := newIndexTestTable(t)
	if err := tbl.CreateIndex("nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("CreateIndex(nope) = %v, want ErrNoColumn", err)
	}
	for i := 0; i < 100; i++ {
		insertIdxRow(t, tbl, uint64(i%7))
	}
	mustMerge(t, tbl)
	if tbl.Indexed("a") {
		t.Fatal("indexed before CreateIndex")
	}
	if err := tbl.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("a"); err != nil { // idempotent
		t.Fatal(err)
	}
	if !tbl.Indexed("a") || tbl.Indexed("b") {
		t.Fatalf("Indexed: a=%v b=%v", tbl.Indexed("a"), tbl.Indexed("b"))
	}
	st := tbl.IndexStats()
	if len(st) != 1 || st[0].Column != "a" {
		t.Fatalf("IndexStats = %+v", st)
	}
	if st[0].Postings != 100 || st[0].Builds != 1 || st[0].SizeBytes == 0 {
		t.Fatalf("IndexStats[0] = %+v", st[0])
	}
	// A merge rebuilds the index over the merged main.
	insertIdxRow(t, tbl, 3)
	mustMerge(t, tbl)
	st = tbl.IndexStats()
	if st[0].Postings != 101 || st[0].Builds != 2 {
		t.Fatalf("after merge: %+v", st[0])
	}
}

// checkIndexedAgainstShadow asserts byte-identical answers between the
// indexed column "a" and the never-indexed shadow column "b" for point,
// range and count reads at the given view.
func checkIndexedAgainstShadow(t *testing.T, tbl *Table, view View, probes []uint64) {
	t.Helper()
	ha, err := colOf[uint64](tbl, "a")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := colOf[uint64](tbl, "b")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range probes {
		got, want := ha.LookupAt(view, v), hb.LookupAt(view, v)
		if len(got) != len(want) {
			t.Fatalf("LookupAt(%d): indexed %d rows, scan %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("LookupAt(%d)[%d]: indexed %d, scan %d", v, i, got[i], want[i])
			}
		}
		if gc, wc := ha.CountEqualAt(view, v), hb.CountEqualAt(view, v); gc != wc {
			t.Fatalf("CountEqualAt(%d): indexed %d, scan %d", v, gc, wc)
		}
		lo, hi := v, v+13
		gr, wr := ha.RangeAt(view, lo, hi), hb.RangeAt(view, lo, hi)
		if len(gr) != len(wr) {
			t.Fatalf("RangeAt(%d,%d): indexed %d rows, scan %d", lo, hi, len(gr), len(wr))
		}
		for i := range gr {
			if gr[i] != wr[i] {
				t.Fatalf("RangeAt(%d,%d)[%d]: indexed %d, scan %d", lo, hi, i, gr[i], wr[i])
			}
		}
	}
}

func TestIndexedReadsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := newIndexTestTable(t)
	ids := make([]int, 0, 4096)
	for i := 0; i < 1000; i++ {
		ids = append(ids, insertIdxRow(t, tbl, uint64(rng.Intn(50))))
	}
	mustMerge(t, tbl)
	if err := tbl.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("s"); err != nil {
		t.Fatal(err)
	}
	// Churn: updates, deletes, fresh inserts — some merged, some left in the
	// delta — with snapshots taken along the way.
	views := []View{tbl.Snapshot()}
	for round := 0; round < 4; round++ {
		for i := 0; i < 300; i++ {
			switch rng.Intn(3) {
			case 0:
				ids = append(ids, insertIdxRow(t, tbl, uint64(rng.Intn(50))))
			case 1:
				id := ids[rng.Intn(len(ids))]
				if nid, err := tbl.Update(id, map[string]any{"a": uint64(rng.Intn(50)), "b": uint64(0)}); err == nil {
					// Keep a and b identical: Update overlays both columns.
					v, _ := tbl.Row(nid)
					if _, err := tbl.Update(nid, map[string]any{"b": v[0]}); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				_ = tbl.Delete(ids[rng.Intn(len(ids))])
			}
		}
		views = append(views, tbl.Snapshot())
		if round%2 == 0 {
			mustMerge(t, tbl)
		}
	}
	probes := []uint64{0, 7, 23, 49, 50, 99}
	for _, view := range views {
		checkIndexedAgainstShadow(t, tbl, view, probes)
	}
	checkIndexedAgainstShadow(t, tbl, Latest(), probes)
	// String column: indexed lookups against a linear scan of row values.
	hs, err := colOf[string](tbl, "s")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"s0000", "s0033", "s0096", "zzz"} {
		got := hs.Lookup(p)
		want := 0
		hs.Scan(func(_ int, v string) bool {
			if v == p {
				want++
			}
			return true
		})
		if len(got) != want {
			t.Fatalf("string Lookup(%q): %d rows, scan %d", p, len(got), want)
		}
	}
	for _, v := range views {
		v.Release()
	}
}

func TestIndexSurvivesMergeAbort(t *testing.T) {
	tbl := newIndexTestTable(t)
	for i := 0; i < 500; i++ {
		insertIdxRow(t, tbl, uint64(i%11))
	}
	mustMerge(t, tbl)
	if err := tbl.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	before := tbl.IndexStats()[0]
	for i := 0; i < 100; i++ {
		insertIdxRow(t, tbl, uint64(i%11))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := tbl.Merge(ctx, MergeOptions{})
	if err == nil || !rep.Aborted {
		t.Fatalf("merge did not abort: rep=%+v err=%v", rep, err)
	}
	if !tbl.Indexed("a") {
		t.Fatal("index lost after merge abort")
	}
	after := tbl.IndexStats()[0]
	if after.Postings != before.Postings || after.Builds != before.Builds {
		t.Fatalf("abort changed index stats: %+v -> %+v", before, after)
	}
	checkIndexedAgainstShadow(t, tbl, Latest(), []uint64{0, 5, 10, 11})
	// The next successful merge folds the delta in and rebuilds.
	mustMerge(t, tbl)
	after = tbl.IndexStats()[0]
	if after.Postings != 600 || after.Builds != before.Builds+1 {
		t.Fatalf("post-recovery stats: %+v", after)
	}
	checkIndexedAgainstShadow(t, tbl, Latest(), []uint64{0, 5, 10, 11})
}

// TestIndexDifferentialUnderChurn runs concurrent writers, GC merges and a
// late CreateIndex against continuous indexed-vs-scan comparisons.  Run
// with -race; pinned snapshots keep each comparison's epoch stable while
// merges and GC proceed.
func TestIndexDifferentialUnderChurn(t *testing.T) {
	tbl := newIndexTestTable(t)
	for i := 0; i < 2000; i++ {
		insertIdxRow(t, tbl, uint64(i%101))
	}
	mustMerge(t, tbl)
	if err := tbl.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Writer: inserts, paired updates keeping a == b, deletes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		ids := make([]int, 0, 1024)
		for i := 0; !stop.Load(); i++ {
			v := uint64(rng.Intn(101))
			id, err := tbl.Insert([]any{v, v, "w"})
			if err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, id)
			if len(ids) > 4 && i%3 == 0 {
				nv := uint64(rng.Intn(101))
				// Update both columns in one call so every row version
				// keeps a == b (updates are atomic per row).
				_, _ = tbl.Update(ids[rng.Intn(len(ids))], map[string]any{"a": nv, "b": nv})
			}
			if len(ids) > 8 && i%7 == 0 {
				_ = tbl.Delete(ids[rng.Intn(len(ids))])
			}
		}
	}()
	// Merger: continuous GC merges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_, err := tbl.Merge(context.Background(), MergeOptions{})
			if err != nil && !errors.Is(err, ErrMergeInProgress) {
				t.Error(err)
				return
			}
		}
	}()
	// Readers: pinned-snapshot comparisons.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ha, _ := colOf[uint64](tbl, "a")
			hb, _ := colOf[uint64](tbl, "b")
			for !stop.Load() {
				view := tbl.Snapshot()
				v := uint64(rng.Intn(110))
				la, lb := ha.LookupAt(view, v), hb.LookupAt(view, v)
				if len(la) != len(lb) {
					t.Errorf("Lookup(%d): indexed %v scan %v", v, la, lb)
				}
				if ca, cb := ha.CountEqualAt(view, v), hb.CountEqualAt(view, v); ca != cb {
					t.Errorf("Count(%d): indexed %d scan %d", v, ca, cb)
				}
				ra, rb := ha.RangeAt(view, v, v+9), hb.RangeAt(view, v, v+9)
				if len(ra) != len(rb) {
					t.Errorf("Range(%d): indexed %v scan %v", v, ra, rb)
				}
				view.Release()
			}
		}(int64(r))
	}
	const iters = 400
	for i := 0; i < iters; i++ {
		view := tbl.Snapshot()
		checkIndexedAgainstShadow(t, tbl, view, []uint64{uint64(i % 105)})
		view.Release()
	}
	stop.Store(true)
	wg.Wait()
	// Quiesced final check.
	checkIndexedAgainstShadow(t, tbl, Latest(), []uint64{0, 50, 100, 101, 200})
}
