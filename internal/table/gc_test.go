package table

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func gcTestTable(t *testing.T) (*Table, *tcol[uint64]) {
	t.Helper()
	tb, err := New("gc", Schema{
		{Name: "k", Type: Uint64},
		{Name: "v", Type: Uint64},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := colOf[uint64](tb, "v")
	if err != nil {
		t.Fatal(err)
	}
	return tb, h
}

// TestGCBoundedUnderUpdates is the acceptance loop: a sustained 100%
// update workload with no pinned views must keep Rows-ValidRows and
// SizeBytes bounded across >= 10 merge cycles instead of growing with the
// number of updates ever applied.
func TestGCBoundedUnderUpdates(t *testing.T) {
	tb, _ := gcTestTable(t)
	const n = 200
	ids := make([]int, n)
	for i := range ids {
		id, err := tb.Insert([]any{uint64(i), uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	baseSize := tb.Stats().SizeBytes

	totalReclaimed := 0
	for cycle := 0; cycle < 12; cycle++ {
		for i := range ids {
			nid, err := tb.Update(ids[i], map[string]any{"v": uint64(cycle*n + i)})
			if err != nil {
				t.Fatalf("cycle %d row %d: %v", cycle, i, err)
			}
			ids[i] = nid
		}
		rep, err := tb.Merge(context.Background(), MergeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		totalReclaimed += rep.RowsReclaimed
		// Every update invalidated one version; with nothing pinned, the
		// merge reclaims all of them.
		if rep.RowsReclaimed != n {
			t.Fatalf("cycle %d: reclaimed %d want %d", cycle, rep.RowsReclaimed, n)
		}
		if got := tb.Rows() - tb.ValidRows(); got != 0 {
			t.Fatalf("cycle %d: %d dead versions survive the merge", cycle, got)
		}
		if tb.Rows() != n {
			t.Fatalf("cycle %d: physical rows %d want %d", cycle, tb.Rows(), n)
		}
		if size := tb.Stats().SizeBytes; size > 4*baseSize {
			t.Fatalf("cycle %d: size %d grew past 4x the post-seed size %d", cycle, size, baseSize)
		}
	}
	if tb.RetiredRows() != totalReclaimed || totalReclaimed != 12*n {
		t.Fatalf("retired %d, reclaimed %d, want %d", tb.RetiredRows(), totalReclaimed, 12*n)
	}
	if tb.ReclaimedBytes() == 0 {
		t.Fatal("ReclaimedBytes not accounted")
	}
	if tb.GCWatermark() == 0 {
		t.Fatal("GCWatermark not recorded")
	}
}

// TestGCRetiredIDSemantics verifies the retired-id contract: operations on
// a reclaimed id return ErrRowInvalid forever, and retired ids are never
// handed out again.
func TestGCRetiredIDSemantics(t *testing.T) {
	tb, h := gcTestTable(t)
	id, err := tb.Insert([]any{uint64(1), uint64(10)})
	if err != nil {
		t.Fatal(err)
	}
	nid, err := tb.Update(id, map[string]any{"v": uint64(11)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	// id was reclaimed; nid survives.
	if _, err := tb.Row(id); !errors.Is(err, ErrRowInvalid) {
		t.Fatalf("Row(retired): %v want ErrRowInvalid", err)
	}
	if _, err := tb.Update(id, map[string]any{"v": uint64(0)}); !errors.Is(err, ErrRowInvalid) {
		t.Fatalf("Update(retired): %v want ErrRowInvalid", err)
	}
	if err := tb.Delete(id); !errors.Is(err, ErrRowInvalid) {
		t.Fatalf("Delete(retired): %v want ErrRowInvalid", err)
	}
	if _, err := h.Get(id); !errors.Is(err, ErrRowInvalid) {
		t.Fatalf("Get(retired): %v want ErrRowInvalid", err)
	}
	if tb.IsValid(id) {
		t.Fatal("retired id reports valid")
	}
	if visibleAt(tb, Latest(), id) {
		t.Fatal("retired id visible")
	}
	// Out-of-range ids still fail with ErrRowRange, not ErrRowInvalid.
	if _, err := tb.Row(tb.NextRowID()); !errors.Is(err, ErrRowRange) {
		t.Fatalf("Row(unallocated): %v want ErrRowRange", err)
	}
	// New inserts never reuse a retired id.
	fresh, err := tb.Insert([]any{uint64(2), uint64(20)})
	if err != nil {
		t.Fatal(err)
	}
	if fresh == id || fresh <= nid {
		t.Fatalf("fresh id %d reuses or precedes earlier ids (%d, %d)", fresh, id, nid)
	}
	// The survivor reads back exactly.
	if v, err := h.Get(nid); err != nil || v != 11 {
		t.Fatalf("survivor value %d, %v", v, err)
	}
}

// TestGCPinnedViewProtects verifies the watermark contract: a pinned view
// keeps every version it can see through arbitrary merges, and releasing
// it lets the next merge reclaim them.
func TestGCPinnedViewProtects(t *testing.T) {
	tb, h := gcTestTable(t)
	const n = 50
	ids := make([]int, n)
	var wantSum uint64
	for i := range ids {
		id, err := tb.Insert([]any{uint64(i), uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		wantSum += uint64(i)
	}
	view := tb.Snapshot()

	// Churn: every row updated twice and a few deleted, with merges in
	// between.
	for round := 0; round < 2; round++ {
		for i := range ids {
			nid, err := tb.Update(ids[i], map[string]any{"v": uint64(1000 + i)})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = nid
		}
		if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := tb.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}

	// The pinned view still reads its exact original row set.
	if got := tb.ValidRowsAt(view); got != n {
		t.Fatalf("pinned view sees %d rows, want %d", got, n)
	}
	if got := h.SumAt(view); got != wantSum {
		t.Fatalf("pinned view sum %d want %d", got, wantSum)
	}

	// Release and merge: everything below the current epoch is dead now.
	view.Release()
	rep, err := tb.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsReclaimed == 0 {
		t.Fatal("release did not unpin history")
	}
	if tb.Rows() != tb.ValidRows() {
		t.Fatalf("dead versions survive after release: %d/%d", tb.Rows(), tb.ValidRows())
	}
	// The released view's versions are gone, so its reads fail.
	if _, err := tb.Read(view, Plan{Reduce: Count}); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("released view read after GC: %v, want ErrReclaimed", err)
	}
}

// TestGCDictionaryCompaction: values referenced only by reclaimed versions
// leave the merged dictionary.
func TestGCDictionaryCompaction(t *testing.T) {
	tb, h := gcTestTable(t)
	id, _ := tb.Insert([]any{uint64(1), uint64(111)})
	for i := 0; i < 100; i++ {
		var err error
		if id, err = tb.Update(id, map[string]any{"v": uint64(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	// 101 versions stored, 100 reclaimed: exactly one value survives, so
	// the main dictionary must hold exactly one entry.
	if got := h.Distinct(); got != 1 {
		t.Fatalf("distinct values after GC merge: %d want 1", got)
	}
	st := tb.Stats()
	if st.Columns[1].UniqueMain != 1 {
		t.Fatalf("main dictionary holds %d values, want 1", st.Columns[1].UniqueMain)
	}
}

// TestGCRaceStress runs concurrent updaters and deleters against a merge
// loop while a pinned view's read set is continuously verified — the
// -race half of the GC correctness suite.
func TestGCRaceStress(t *testing.T) {
	tb, h := gcTestTable(t)
	const n = 128
	ids := make([]atomic.Int64, n)
	var wantSum uint64
	for i := 0; i < n; i++ {
		id, err := tb.Insert([]any{uint64(i), uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i].Store(int64(id))
		wantSum += uint64(i)
	}
	view := tb.Snapshot()

	stop := make(chan struct{})
	var updates atomic.Int64
	var wg sync.WaitGroup
	// Writers: each owns a stripe of rows and updates them continuously.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := w; i < n; i += 4 {
					nid, err := tb.Update(int(ids[i].Load()), map[string]any{"v": uint64(round)})
					if err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					ids[i].Store(int64(nid))
					updates.Add(1)
				}
			}
		}(w)
	}
	// Merger: garbage-collecting merges back to back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tb.Merge(context.Background(), MergeOptions{Threads: 2}); err != nil &&
				!errors.Is(err, ErrMergeInProgress) {
				t.Errorf("merge: %v", err)
				return
			}
		}
	}()
	// Reader: the pinned view must stay frozen through all of it.  Keep
	// checking until the writers have churned the whole table a few times
	// over, so merges demonstrably ran against real invalidation load.
	for check := 0; check < 50 || updates.Load() < 4*n; check++ {
		if got := tb.ValidRowsAt(view); got != n {
			t.Errorf("check %d: pinned view sees %d rows want %d", check, got, n)
			break
		}
		if got := h.SumAt(view); got != wantSum {
			t.Errorf("check %d: pinned view sum %d want %d", check, got, wantSum)
			break
		}
	}
	close(stop)
	wg.Wait()
	view.Release()

	// Quiesced: one final merge reclaims everything dead.
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != tb.ValidRows() || tb.ValidRows() != n {
		t.Fatalf("after final merge: rows=%d valid=%d want %d", tb.Rows(), tb.ValidRows(), n)
	}
	if tb.RetiredRows() == 0 {
		t.Fatal("stress reclaimed nothing")
	}
}

// TestMayReclaim pins the O(1) test a scheduler polls: true while dead
// versions the last merge did not see wait, false once a merge kept them
// all for a pin, true again after a release; on a follower whose clock
// lags the replayed stamps, false until the clock reaches the kept end.
func TestMayReclaim(t *testing.T) {
	tb, _ := gcTestTable(t)
	fill := func(tb *Table) {
		for i := range 10 {
			if _, err := tb.Insert([]any{uint64(i), uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	merge := func(tb *Table) Report {
		t.Helper()
		rep, err := tb.Merge(context.Background(), MergeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	fill(tb)
	merge(tb)
	if tb.MayReclaim() {
		t.Fatal("MayReclaim with no dead version")
	}
	pin := tb.Snapshot()
	if err := tb.Delete(3); err != nil {
		t.Fatal(err)
	}
	if !tb.MayReclaim() {
		t.Fatal("a dead version no merge saw is not reclaimable")
	}
	if rep := merge(tb); rep.RowsReclaimed != 0 || tb.MayReclaim() {
		t.Fatalf("after a merge kept the pinned version (reclaimed %d): MayReclaim %v", rep.RowsReclaimed, tb.MayReclaim())
	}
	// A pin newer than every kept version, taken and released, keeps none
	// of them, and so does not re-arm the partition; nor does an older one
	// that sees none of them.
	old := PinnedViewAt(tb.Clock(), 0)
	newer := tb.Snapshot()
	newer.Release()
	old.Release()
	if tb.MayReclaim() {
		t.Fatal("the release of a pin that kept nothing re-arms the partition")
	}
	if err := tb.Delete(4); err != nil {
		t.Fatal(err)
	}
	if !tb.MayReclaim() {
		t.Fatal("a new dead version is not reclaimable")
	}
	merge(tb)
	pin.Release()
	if !tb.MayReclaim() {
		t.Fatal("not reclaimable after the pin's release")
	}
	if rep := merge(tb); rep.RowsReclaimed != 2 || tb.MayReclaim() {
		t.Fatalf("the merge after the release reclaimed %d of 2", rep.RowsReclaimed)
	}

	f, err := New("follower", tb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyInsert(0, [][]any{{uint64(1), uint64(1)}}, 5); err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyInvalidate(0, 7); err != nil {
		t.Fatal(err)
	}
	if rep := merge(f); rep.RowsReclaimed != 0 || f.MayReclaim() {
		t.Fatalf("follower: a version ahead of the clock reclaimed %d, MayReclaim %v", rep.RowsReclaimed, f.MayReclaim())
	}
	f.Clock().AdvanceTo(7)
	if !f.MayReclaim() {
		t.Fatal("follower: not reclaimable once the clock reached the kept end")
	}
	if rep := merge(f); rep.RowsReclaimed != 1 {
		t.Fatalf("follower: reclaimed %d of 1", rep.RowsReclaimed)
	}
}

// TestReadBelowGCFails pins the one read rule: a read at epoch E sees
// exactly the versions with begin <= E < end, or fails with ErrReclaimed.
// A row visible at unpinned epoch 1 is updated and merged away, so a read
// at ViewAt(1) fails instead of answering without it; a live pin older
// than that merge's watermark still reads its complete rows; released and
// passed by a further reclaiming merge, the same view fails.
func TestReadBelowGCFails(t *testing.T) {
	tb := newTestTable(t)
	a, err := tb.Insert([]any{uint64(1), uint32(10), "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tb.Insert([]any{uint64(2), uint32(20), "b"})
	if err != nil {
		t.Fatal(err)
	}
	key := func(v View, k uint64) ([]int, error) {
		s, err := tb.Read(v, Plan{Preds: []Pred{{Col: 0, Lo: k}}})
		if err != nil {
			return nil, err
		}
		return s.Rows, nil
	}
	if rows, err := key(ViewAt(1), 2); err != nil || len(rows) != 1 {
		t.Fatalf("before any merge, key 2 at epoch 1: %v, %v", rows, err)
	}
	tb.Clock().Capture()
	if _, err := tb.Update(b, map[string]any{"qty": uint32(21)}); err != nil {
		t.Fatal(err)
	}
	tb.Clock().Capture()
	pin := tb.Snapshot() // sees a and b's second version
	defer pin.Release()
	if _, err := tb.Update(a, map[string]any{"qty": uint32(11)}); err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsReclaimed != 1 || rep.GCWatermark <= pin.Epoch() {
		t.Fatalf("merge reclaimed %d (want b's first version) at watermark %d (want above the pin's %d)",
			rep.RowsReclaimed, rep.GCWatermark, pin.Epoch())
	}

	if rows, err := key(ViewAt(1), 2); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("key 2 at reclaimed epoch 1: %v, %v; want ErrReclaimed", rows, err)
	}
	if _, err := tb.VisibleAt(ViewAt(1), b); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("VisibleAt at reclaimed epoch 1: %v, want ErrReclaimed", err)
	}

	// The pin is below the watermark, yet complete: retention kept a's
	// first version for it.
	s, err := tb.Read(pin, Plan{Project: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 || s.Values[0][0] != uint32(10) || s.Values[1][0] != uint32(21) {
		t.Fatalf("pinned read below the watermark: rows %v values %v, want qty 10 and 21", s.Rows, s.Values)
	}

	pin.Release()
	if _, err := tb.Update(tb.RowIDs()[len(tb.RowIDs())-1], map[string]any{"qty": uint32(12)}); err != nil {
		t.Fatal(err)
	}
	tb.Clock().Capture()
	if rep, err := tb.Merge(context.Background(), MergeOptions{}); err != nil || rep.RowsReclaimed == 0 {
		t.Fatalf("merge after the release reclaimed %d, %v", rep.RowsReclaimed, err)
	}
	if _, err := tb.Read(pin, Plan{Reduce: Count}); !errors.Is(err, ErrReclaimed) {
		t.Fatalf("released view after a reclaiming merge: %v, want ErrReclaimed", err)
	}
	if _, err := tb.Read(ViewAt(tb.GCWatermark()), Plan{Reduce: Count}); err != nil {
		t.Fatalf("read at the watermark: %v", err)
	}
}
