package table

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refTable is a trivially correct model of the insert-only table: a flat
// row log plus validity flags, with garbage collection modelled as a
// retired flag — with no pinned views, every invalidated row present at a
// merge is reclaimed by it.  The model-based test below applies long
// random operation sequences to both implementations and compares every
// observable query result.
type refTable struct {
	rows    [][2]uint64 // columns k, v
	valid   []bool
	retired []bool // reclaimed by a modelled GC merge
}

func (r *refTable) insert(k, v uint64) int {
	r.rows = append(r.rows, [2]uint64{k, v})
	r.valid = append(r.valid, true)
	r.retired = append(r.retired, false)
	return len(r.rows) - 1
}

// reclaim models a GC merge with nothing pinned: every invalidated row
// still stored is reclaimed.
func (r *refTable) reclaim() {
	for i, v := range r.valid {
		if !v {
			r.retired[i] = true
		}
	}
}

// storedCount returns the number of physically stored rows (not reclaimed).
func (r *refTable) storedCount() int {
	n := 0
	for i := range r.rows {
		if !r.retired[i] {
			n++
		}
	}
	return n
}

func (r *refTable) update(row int, k uint64) (int, bool) {
	if row < 0 || row >= len(r.rows) || !r.valid[row] {
		return 0, false
	}
	r.valid[row] = false
	return r.insert(k, r.rows[row][1]), true
}

func (r *refTable) del(row int) bool {
	if row < 0 || row >= len(r.rows) || !r.valid[row] {
		return false
	}
	r.valid[row] = false
	return true
}

func (r *refTable) lookup(k uint64) []int {
	var out []int
	for i, row := range r.rows {
		if r.valid[i] && row[0] == k {
			out = append(out, i)
		}
	}
	return out
}

func (r *refTable) rangeSel(lo, hi uint64) []int {
	var out []int
	for i, row := range r.rows {
		if r.valid[i] && row[0] >= lo && row[0] <= hi {
			out = append(out, i)
		}
	}
	return out
}

func (r *refTable) sumV() uint64 {
	var s uint64
	for i, row := range r.rows {
		if r.valid[i] {
			s += row[1]
		}
	}
	return s
}

func (r *refTable) validCount() int {
	n := 0
	for _, v := range r.valid {
		if v {
			n++
		}
	}
	return n
}

// TestModelBasedRandomOps drives the table and the reference model through
// thousands of random operations, with merges (varying thread counts)
// interleaved, verifying full query equivalence after every batch.
func TestModelBasedRandomOps(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tb, err := New("m", Schema{
				{Name: "k", Type: Uint64},
				{Name: "v", Type: Uint64},
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := &refTable{}
			hk, _ := colOf[uint64](tb, "k")
			nv, _ := colOf[uint64](tb, "v")

			const domain = 50 // small domain: dense collisions
			checkEquiv := func(step int) {
				t.Helper()
				if tb.Rows() != ref.storedCount() {
					t.Fatalf("step %d: rows %d want %d", step, tb.Rows(), ref.storedCount())
				}
				if tb.ValidRows() != ref.validCount() {
					t.Fatalf("step %d: valid %d want %d", step, tb.ValidRows(), ref.validCount())
				}
				// Every key's lookup set matches.
				for k := uint64(0); k < domain; k += 7 {
					got := hk.Lookup(k)
					want := ref.lookup(k)
					if len(got) != len(want) {
						t.Fatalf("step %d: lookup(%d) %v want %v", step, k, got, want)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("step %d: lookup(%d) %v want %v", step, k, got, want)
						}
					}
				}
				// A random range matches.
				lo := rng.Uint64() % domain
				hi := lo + rng.Uint64()%10
				got := hk.Range(lo, hi)
				want := ref.rangeSel(lo, hi)
				if len(got) != len(want) {
					t.Fatalf("step %d: range(%d,%d) %d rows want %d", step, lo, hi, len(got), len(want))
				}
				// Aggregate matches.
				if got, want := nv.Sum(), ref.sumV(); got != want {
					t.Fatalf("step %d: sum %d want %d", step, got, want)
				}
			}

			for step := 0; step < 60; step++ {
				// One batch of random mutations.
				for op := 0; op < 100; op++ {
					switch rng.Intn(10) {
					case 0, 1, 2, 3, 4: // insert
						k, v := rng.Uint64()%domain, rng.Uint64()%1000
						got, err := tb.Insert([]any{k, v})
						if err != nil {
							t.Fatal(err)
						}
						if want := ref.insert(k, v); got != want {
							t.Fatalf("insert row id %d want %d", got, want)
						}
					case 5, 6, 7: // update a random row
						if len(ref.rows) == 0 {
							continue
						}
						row := rng.Intn(len(ref.rows))
						k := rng.Uint64() % domain
						wantID, wantOK := ref.update(row, k)
						gotID, err := tb.Update(row, map[string]any{"k": k})
						if wantOK != (err == nil) {
							t.Fatalf("update(%d) err=%v wantOK=%v", row, err, wantOK)
						}
						if wantOK && gotID != wantID {
							t.Fatalf("update id %d want %d", gotID, wantID)
						}
					default: // delete a random row
						if len(ref.rows) == 0 {
							continue
						}
						row := rng.Intn(len(ref.rows))
						wantOK := ref.del(row)
						err := tb.Delete(row)
						if wantOK != (err == nil) {
							t.Fatalf("delete(%d) err=%v wantOK=%v", row, err, wantOK)
						}
					}
				}
				// Periodic merges with varied configurations.
				if step%5 == 4 {
					if _, err := tb.Merge(context.Background(), MergeOptions{
						Threads: 1 + rng.Intn(4), // two columns: 1-2 merge by column tasks, 3-4 intra-column
					}); err != nil {
						t.Fatal(err)
					}
					ref.reclaim()
				}
				checkEquiv(step)
			}
		})
	}
}

// TestModelBasedHistory verifies precise per-pin retention over a version
// chain: a merge keeps exactly the versions some live pin can see — each
// pinned epoch's visible version stays materializable with its original
// values after arbitrary merges — while versions whose [begin, end)
// interval contains no pinned epoch are reclaimed even though an older pin
// is still registered (the coarse min-pin watermark would have retained
// all of them).  Releasing pins then lets successive merges reclaim the
// versions only those pins protected.
func TestModelBasedHistory(t *testing.T) {
	tb, _ := New("h", Schema{{Name: "k", Type: Uint64}})
	rng := rand.New(rand.NewSource(9))
	row0, _ := tb.Insert([]any{uint64(0)})
	cur := row0
	// guard pins the epoch at which row0 is current: every merge below
	// must keep row0 materializable while guard is held.
	guard := tb.Snapshot()

	// 200 updates with a pinned snapshot every 25: the pinned versions
	// (plus row0 and the final current version) are the only survivors a
	// precise merge may keep.
	type pinned struct {
		view View
		row  int
		want uint64
	}
	var mids []pinned
	vals := map[int]uint64{row0: 0}
	for i := 1; i <= 200; i++ {
		v := rng.Uint64() % 1000
		nr, err := tb.Update(cur, map[string]any{"k": v})
		if err != nil {
			t.Fatal(err)
		}
		vals[nr] = v
		cur = nr
		if i%25 == 0 {
			mids = append(mids, pinned{view: tb.Snapshot(), row: cur, want: v})
		}
	}

	// One merge under all 9 pins (guard + 8 mids).  Dead versions: 200.
	// Kept dead: row0 (guard sees it) and the 7 superseded mid versions
	// (the 8th pinned version is the live current row) — so 192 reclaim
	// precisely.  The min-pin watermark sits at guard's epoch, below every
	// invalidation, so the old rule would have reclaimed nothing.
	if coarse := coarseReclaimable(tb, guard.Epoch()); coarse != 0 {
		t.Fatalf("coarse rule reclaims %d want 0", coarse)
	}
	rep, err := tb.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadAtFreeze != 200 || rep.LivePins != 9 {
		t.Fatalf("DeadAtFreeze=%d LivePins=%d want 200/9", rep.DeadAtFreeze, rep.LivePins)
	}
	if rep.RowsReclaimed != 192 {
		t.Fatalf("RowsReclaimed=%d want 192", rep.RowsReclaimed)
	}

	h, _ := colOf[uint64](tb, "k")
	checkPinnedVisible := func() {
		t.Helper()
		if got, err := h.Get(row0); err != nil || got != 0 {
			t.Fatalf("guarded row0: %d, %v", got, err)
		}
		if n := tb.ValidRowsAt(guard); n != 1 {
			t.Fatalf("ValidRowsAt(guard)=%d want 1", n)
		}
		for _, m := range mids {
			if got, err := h.Get(m.row); err != nil || got != m.want {
				t.Fatalf("pinned row %d: %d, %v (want %d)", m.row, got, err, m.want)
			}
			if n := tb.ValidRowsAt(m.view); n != 1 {
				t.Fatalf("ValidRowsAt(mid)=%d want 1", n)
			}
		}
	}
	checkPinnedVisible()

	// Unpinned versions are gone: their ids are retired for good.
	reclaimed := 0
	for row := range vals {
		if _, err := h.Get(row); errors.Is(err, ErrRowInvalid) {
			reclaimed++
		}
	}
	if reclaimed != 192 {
		t.Fatalf("reclaimed ids=%d want 192", reclaimed)
	}
	if tb.ValidRows() != 1 || !tb.IsValid(cur) {
		t.Fatalf("ValidRows=%d IsValid(cur)=%v want 1/true", tb.ValidRows(), tb.IsValid(cur))
	}

	// A second merge with the same pin set has nothing more to reclaim:
	// precise retention is stable, not monotone-forgetful.
	rep, err = tb.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsReclaimed != 0 {
		t.Fatalf("idempotent merge reclaimed %d", rep.RowsReclaimed)
	}
	checkPinnedVisible()

	// Releasing the mid pins frees their 7 superseded versions; guard
	// still protects row0.
	for _, m := range mids {
		m.view.Release()
	}
	rep, err = tb.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsReclaimed != 7 {
		t.Fatalf("after mid release: RowsReclaimed=%d want 7", rep.RowsReclaimed)
	}
	if got, err := h.Get(row0); err != nil || got != 0 {
		t.Fatalf("guarded row0 after mid release: %d, %v", got, err)
	}

	// Releasing guard frees the last dead version.
	guard.Release()
	rep, err = tb.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsReclaimed != 1 {
		t.Fatalf("after guard release: RowsReclaimed=%d want 1", rep.RowsReclaimed)
	}
	if tb.Rows() != 1 || tb.RetiredRows() != 200 {
		t.Fatalf("rows=%d retired=%d want 1/200", tb.Rows(), tb.RetiredRows())
	}
	if got, err := h.Get(cur); err != nil || got != vals[cur] {
		t.Fatalf("current row after GC: %d, %v", got, err)
	}
}
