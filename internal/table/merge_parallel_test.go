package table

import (
	"context"
	"math/rand"
	"testing"
)

// scanPairs collects (row id, value) pairs visible at the view in scan
// order.
func scanPairs(h *tcol[uint64], v View) [][2]uint64 {
	var out [][2]uint64
	h.ScanAt(v, func(row int, val uint64) bool {
		out = append(out, [2]uint64{uint64(row), val})
		return true
	})
	return out
}

// TestParallelMergeIdentity drives two tables through an identical
// insert/update/delete workload — large enough to cross the core package's
// parallel Step 2 threshold — then garbage-collect-merges one serially and
// the other with 8 intra-column threads.  Everything observable must be
// identical: reclaim counts, row/version counts, stable ids, values, and
// epoch visibility through a snapshot pinned mid-workload.
func TestParallelMergeIdentity(t *testing.T) {
	const n = 20000 // > parallelStep2Threshold after the first merge

	type tbl struct {
		tb  *Table
		h   *tcol[uint64]
		ids []int
		pin View
	}
	build := func() *tbl {
		tb, h := gcTestTable(t)
		x := &tbl{tb: tb, h: h, ids: make([]int, n)}
		for i := 0; i < n; i++ {
			id, err := tb.Insert([]any{uint64(i), uint64(i)})
			if err != nil {
				t.Fatal(err)
			}
			x.ids[i] = id
		}
		// Deterministic mutation round: updates create dead versions for
		// GC, deletes leave tombstoned ids, the pinned snapshot in the
		// middle splits epoch visibility.
		rng := rand.New(rand.NewSource(99))
		mutate := func(frac int) {
			for i := range x.ids {
				if x.ids[i] < 0 || rng.Intn(100) >= frac {
					continue
				}
				if rng.Intn(10) == 0 {
					if err := tb.Delete(x.ids[i]); err != nil {
						t.Fatal(err)
					}
					x.ids[i] = -1
					continue
				}
				nid, err := tb.Update(x.ids[i], map[string]any{"v": uint64(rng.Intn(1 << 20))})
				if err != nil {
					t.Fatal(err)
				}
				x.ids[i] = nid
			}
		}
		mutate(30)
		x.pin = tb.Snapshot()
		mutate(20)
		return x
	}

	a, b := build(), build()
	defer a.pin.Release()
	defer b.pin.Release()

	serial := MergeOptions{Threads: 1}
	wide := MergeOptions{Threads: 8} // more threads than columns: intra-column
	for round := 0; round < 2; round++ {
		repA, err := a.tb.Merge(context.Background(), serial)
		if err != nil {
			t.Fatal(err)
		}
		repB, err := b.tb.Merge(context.Background(), wide)
		if err != nil {
			t.Fatal(err)
		}
		if intraColumn(repA) || !intraColumn(repB) {
			t.Fatalf("round %d: serial merge ran %d threads per column, wide one %d",
				round, repA.Columns[0].Threads, repB.Columns[0].Threads)
		}
		if repA.RowsReclaimed != repB.RowsReclaimed {
			t.Fatalf("round %d: reclaimed %d (serial) vs %d (parallel)", round, repA.RowsReclaimed, repB.RowsReclaimed)
		}
		if a.tb.Rows() != b.tb.Rows() || a.tb.ValidRows() != b.tb.ValidRows() || a.tb.RetiredRows() != b.tb.RetiredRows() {
			t.Fatalf("round %d: rows %d/%d valid %d/%d retired %d/%d", round,
				a.tb.Rows(), b.tb.Rows(), a.tb.ValidRows(), b.tb.ValidRows(),
				a.tb.RetiredRows(), b.tb.RetiredRows())
		}

		for _, view := range []View{Latest(), a.pin} {
			vb := view
			if !view.IsLatest() {
				vb = b.pin
			}
			pa, pb := scanPairs(a.h, view), scanPairs(b.h, vb)
			if len(pa) != len(pb) {
				t.Fatalf("round %d: scan lengths %d vs %d", round, len(pa), len(pb))
			}
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("round %d: scan[%d] = %v (serial) vs %v (parallel)", round, i, pa[i], pb[i])
				}
			}
		}

		// Spot-check stable id -> value mapping directly.
		for i := 0; i < n; i += 997 {
			if a.ids[i] != b.ids[i] {
				t.Fatalf("id streams diverged at %d: %d vs %d", i, a.ids[i], b.ids[i])
			}
			if a.ids[i] < 0 {
				continue
			}
			va, ea := a.h.Get(a.ids[i])
			vb2, eb := b.h.Get(b.ids[i])
			if (ea == nil) != (eb == nil) || va != vb2 {
				t.Fatalf("Get(%d): %v,%v vs %v,%v", a.ids[i], va, ea, vb2, eb)
			}
		}

		if round == 0 {
			// Second round: mutate the (now main-resident) rows again so the
			// next GC merge drops from the main partition on both tables.
			for _, x := range []*tbl{a, b} {
				rng := rand.New(rand.NewSource(1234))
				for i := range x.ids {
					if x.ids[i] < 0 || rng.Intn(100) >= 25 {
						continue
					}
					nid, err := x.tb.Update(x.ids[i], map[string]any{"v": uint64(rng.Intn(1 << 20))})
					if err != nil {
						t.Fatal(err)
					}
					x.ids[i] = nid
				}
			}
		}
	}
}
