package table

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hyrise/internal/epoch"
)

// TestSplitScansRace reads through every kernel-backed read — LookupAt,
// RangeAt, CountEqualAt, SumAt, MinAt, MaxAt — while writers change the
// table and garbage-collecting merges commit, and checks every answer.  In
// the first phase the writer only inserts, so no main row is ever dead and
// latest reads run the kernels with a nil bitmap; in the second, writers
// update and delete, and a pinned view's answers are checked against the
// rows it saw when it was pinned.  The main holds more than three times
// the scan kernels' minimum part (1<<17 codes) and GOMAXPROCS is at least
// 4, so every one of those reads scans the main in three parts: the -race
// half of the kernels' parallel split.
func TestSplitScansRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	tb, h := gcTestTable(t)
	key, err := colOf[uint64](tb, "k")
	if err != nil {
		t.Fatal(err)
	}
	const n, distinct, stripe = 3<<17 + 1000, 1000, 2000
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{uint64(i), uint64(i % distinct)}
	}
	ids, err := tb.InsertRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	extra := insertOnlyPhase(t, tb, h, n, distinct)
	// Deleted before the pin: invisible to it, so the first merge below
	// reclaims them from under the readers.
	deleted := make(map[int]bool)
	for i := 5; i < n; i += 97 {
		if err := tb.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
		deleted[i] = true
	}
	view := tb.Snapshot()
	defer view.Release()

	// The oracle: value v's ids, the sum, min and max at the pinned epoch.
	// The first phase's rows all hold the value distinct.
	byValue := make([][]int, distinct)
	sum := uint64(extra) * distinct
	mn, mx := uint64(distinct), uint64(0)
	if extra > 0 {
		mx = distinct
	}
	for i, id := range ids {
		if deleted[i] {
			continue
		}
		v := uint64(i % distinct)
		byValue[v] = append(byValue[v], id)
		sum += v
		mn, mx = min(mn, v), max(mx, v)
	}

	// Writers: each owns every other row of the first stripe rows, updates
	// them to values the view never saw and deletes one in eleven.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := make(map[int]int)
			for i := w; i < stripe; i += 2 {
				if !deleted[i] {
					cur[i] = ids[i]
				}
			}
			for round := uint64(0); ; round++ {
				for i, id := range cur {
					select {
					case <-stop:
						return
					default:
					}
					if i%11 == 0 && round > 0 {
						if err := tb.Delete(id); err != nil {
							t.Errorf("writer %d: delete: %v", w, err)
							return
						}
						delete(cur, i)
						continue
					}
					nid, err := tb.Update(id, map[string]any{"v": distinct + round})
					if err != nil {
						t.Errorf("writer %d: update: %v", w, err)
						return
					}
					cur[i] = nid
				}
			}
		}()
	}
	// Merger: garbage-collecting merges back to back.
	var merges, reclaimed atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep, err := tb.Merge(context.Background(), MergeOptions{Threads: 2})
			if errors.Is(err, ErrMergeInProgress) {
				continue
			}
			if err != nil {
				t.Errorf("merge: %v", err)
				return
			}
			merges.Add(1)
			reclaimed.Add(int64(rep.RowsReclaimed))
		}
	}()

	sorted := func(s []int) []int { slices.Sort(s); return s }
	check := 0
	for ; check < 16 || merges.Load() < 3; check++ {
		v := uint64(check*37) % distinct
		if got := sorted(h.LookupAt(view, v)); !slices.Equal(got, byValue[v]) {
			t.Errorf("check %d: LookupAt(%d): %d ids, want %d", check, v, len(got), len(byValue[v]))
			break
		}
		i := check * 7919 % n
		want := []int{ids[i]}
		if deleted[i] {
			want = nil
		}
		if got := key.LookupAt(view, uint64(i)); !slices.Equal(got, want) {
			t.Errorf("check %d: key LookupAt(%d) = %v want %v", check, i, got, want)
			break
		}
		lo := v % (distinct - 3)
		wantRange := sorted(slices.Concat(byValue[lo], byValue[lo+1], byValue[lo+2]))
		if got := sorted(h.RangeAt(view, lo, lo+2)); !slices.Equal(got, wantRange) {
			t.Errorf("check %d: RangeAt(%d, %d): %d ids, want %d", check, lo, lo+2, len(got), len(wantRange))
			break
		}
		if got := h.CountEqualAt(view, v); got != len(byValue[v]) {
			t.Errorf("check %d: CountEqualAt(%d) = %d want %d", check, v, got, len(byValue[v]))
			break
		}
		if got := h.SumAt(view); got != sum {
			t.Errorf("check %d: SumAt = %d want %d", check, got, sum)
			break
		}
		if got, ok := h.MinAt(view); !ok || got != mn {
			t.Errorf("check %d: MinAt = %d, %v want %d", check, got, ok, mn)
			break
		}
		if got, ok := h.MaxAt(view); !ok || got != mx {
			t.Errorf("check %d: MaxAt = %d, %v want %d", check, got, ok, mx)
			break
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d checks across %d merges reclaiming %d versions", check, merges.Load(), reclaimed.Load())
	if reclaimed.Load() == 0 {
		t.Errorf("%d merges reclaimed nothing", merges.Load())
	}
}

// insertOnlyPhase reads latest values below distinct through every
// kernel-backed read while one writer inserts rows holding the value
// distinct and garbage-collecting merges commit, so the main never holds a
// dead row and every read sees it whole.  The table holds n rows with
// values i % distinct.  It returns how many rows the writer inserted.
func insertOnlyPhase(t *testing.T, tb *Table, h *tcol[uint64], n, distinct int) int {
	t.Helper()
	counts := make([]int, distinct)
	var sum uint64
	for i := range n {
		counts[i%distinct]++
		sum += uint64(i % distinct)
	}
	stop := make(chan struct{})
	var inserted, merges atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := n; ; k += 100 {
			select {
			case <-stop:
				return
			default:
			}
			rows := make([][]any, 100)
			for j := range rows {
				rows[j] = []any{uint64(k + j), uint64(distinct)}
			}
			if _, err := tb.InsertRows(rows); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			inserted.Add(100)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tb.Merge(context.Background(), MergeOptions{Threads: 2}); err != nil {
				t.Errorf("merge: %v", err)
				return
			}
			merges.Add(1)
		}
	}()
	check := 0
	for ; check < 16 || merges.Load() < 3; check++ {
		if !whole(tb, epoch.Latest) {
			t.Errorf("check %d: insert-only main not whole at latest", check)
			break
		}
		v := uint64(check*37) % uint64(distinct-1)
		if got := h.CountEqual(v); got != counts[v] {
			t.Errorf("check %d: CountEqual(%d) = %d want %d", check, v, got, counts[v])
			break
		}
		if got := h.Lookup(v); len(got) != counts[v] {
			t.Errorf("check %d: Lookup(%d): %d ids want %d", check, v, len(got), counts[v])
			break
		}
		if got := h.Range(v, v+1); len(got) != counts[v]+counts[v+1] {
			t.Errorf("check %d: Range(%d, %d): %d ids want %d", check, v, v+1, len(got), counts[v]+counts[v+1])
			break
		}
		// Every inserted row adds distinct to the sum and leaves min at 0.
		if got := h.Sum(); got < sum || (got-sum)%uint64(distinct) != 0 {
			t.Errorf("check %d: Sum = %d, want %d plus a multiple of %d", check, got, sum, distinct)
			break
		}
		if got, ok := h.Min(); !ok || got != 0 {
			t.Errorf("check %d: Min = %d, %v want 0", check, got, ok)
			break
		}
		if got, ok := h.Max(); !ok || (got != uint64(distinct-1) && got != uint64(distinct)) {
			t.Errorf("check %d: Max = %d, %v", check, got, ok)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("insert-only phase: %d checks across %d merges, %d rows inserted", check, merges.Load(), inserted.Load())
	return int(inserted.Load())
}
