package table

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSplitScansRace reads a pinned view through every kernel-backed read —
// LookupAt, RangeAt, CountEqualAt, SumAt, MinAt, MaxAt — while writers
// update and delete and garbage-collecting merges commit, and checks every
// answer against the rows the view saw when it was pinned.  The main holds
// more than three times the scan kernels' minimum part (1<<17 codes) and
// GOMAXPROCS is at least 4, so every one of those reads scans the main in
// three parts: the -race half of the kernels' parallel split.
func TestSplitScansRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	tb, h := gcTestTable(t)
	key, err := ColumnOf[uint64](tb, "k")
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
	byValue := make([][]int, distinct)
	var sum uint64
	mn, mx := uint64(distinct), uint64(0)
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
