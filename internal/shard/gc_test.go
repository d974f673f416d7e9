package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hyrise/internal/table"
)

// TestShardedGC runs the update-heavy GC loop against a sharded table: a
// cross-shard pinned view protects its row set through RequestMerge cycles,
// unpinned history is reclaimed on every shard, and retired global ids
// keep failing with ErrRowInvalid.  The parallel variant runs every shard
// merge through the intra-column range-partitioned GC path.
func TestShardedGC(t *testing.T) {
	t.Run("serial", func(t *testing.T) { shardedGCLoop(t, table.MergeOptions{}) })
	t.Run("parallel-intra-column", func(t *testing.T) {
		// 4 threads per partition, more than the 2 columns, so every
		// partition merges intra-column.
		shardedGCLoop(t, table.MergeOptions{Threads: 4})
	})
}

func shardedGCLoop(t *testing.T, mopts table.MergeOptions) {
	st, err := New("gc", table.Schema{
		{Name: "k", Type: table.Uint64},
		{Name: "v", Type: table.Uint64},
	}, "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	gids := make([]int, n)
	for i := range gids {
		gid, err := st.Insert([]any{uint64(i), uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		gids[i] = gid
	}
	retiredGid := gids[0]

	var view table.View
	pinned := false
	for cycle := 0; cycle < 10; cycle++ {
		for i := range gids {
			// Every third update changes the key, exercising cross-shard
			// moves under GC.
			changes := map[string]any{"v": uint64(cycle)}
			if i%3 == 0 {
				changes["k"] = uint64(i + cycle*n)
			}
			ngid, err := st.Update(gids[i], changes)
			if err != nil {
				t.Fatalf("cycle %d row %d: %v", cycle, i, err)
			}
			gids[i] = ngid
		}
		if _, err := st.RequestMerge(context.Background(), mopts); err != nil {
			t.Fatal(err)
		}
		if mopts.Threads > 0 {
			for i, p := range st.Partitions() {
				if got := p.LastMergeReport().Columns[0].Threads; got != mopts.Threads {
					t.Fatalf("cycle %d: partition %d merged with %d threads per column, want %d (intra-column)",
						cycle, i, got, mopts.Threads)
				}
			}
		}
		if !pinned {
			// With nothing pinned, every superseded version is reclaimed:
			// Rows - ValidRows stays zero after each merge cycle, no matter
			// how many updates ran.
			if st.Rows() != st.ValidRows() || st.Rows() != n {
				t.Fatalf("cycle %d: rows=%d valid=%d, growth not bounded",
					cycle, st.Rows(), st.ValidRows())
			}
		} else {
			// A pinned view freezes history from its capture on — but what
			// it sees never changes.
			if got := st.ValidRowsAt(view); got != n {
				t.Fatalf("cycle %d: pinned view sees %d rows want %d", cycle, got, n)
			}
		}
		if cycle == 4 {
			// Pin a cross-shard view mid-run, as a real reader would.
			view = st.Snapshot()
			pinned = true
		}
	}

	// Release the mid-run pin: the next merge reclaims the history it held.
	view.Release()
	rep, err := st.RequestMerge(context.Background(), mopts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsReclaimed == 0 {
		t.Fatal("release reclaimed nothing")
	}
	if st.Rows() != st.ValidRows() || st.ValidRows() != n {
		t.Fatalf("after release: rows=%d valid=%d want %d", st.Rows(), st.ValidRows(), n)
	}
	// The very first version was reclaimed back in cycle 0; its global id
	// is retired for good.
	if _, err := st.Row(retiredGid); !errors.Is(err, table.ErrRowInvalid) {
		t.Fatalf("Row(retired gid): %v want ErrRowInvalid", err)
	}
	if st.IsValid(retiredGid) {
		t.Fatal("retired gid reports valid")
	}
	stats := st.StoreStats()
	if stats.RetiredRows == 0 || stats.ReclaimedBytes == 0 {
		t.Fatalf("GC counters not aggregated: %+v", stats)
	}
	// Current versions read back exactly.
	for i, gid := range gids {
		row, err := st.Row(gid)
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
		if row[1].(uint64) != 9 {
			t.Fatalf("survivor %d: v=%v want 9", i, row[1])
		}
	}
}

// TestReshardedPartitionsCollect: the partitions an online reshard creates
// garbage-collect like the ones the store started with — the migrated-away
// versions in the sealed partition and the updated ones in the new window
// are all reclaimed by the next merge.
func TestReshardedPartitionsCollect(t *testing.T) {
	st := newKV(t, 1)
	const rows = 100
	for i := 0; i < rows; i++ {
		if _, err := st.Insert([]any{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Reshard(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	k, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := st.Update(k.Lookup(uint64(i))[0], map[string]any{"v": uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := st.RequestMerge(context.Background(), table.MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsReclaimed != 2*rows {
		t.Fatalf("reclaimed %d versions, want %d", rep.RowsReclaimed, 2*rows)
	}
	base, n := st.ActiveWindow()
	for i, p := range st.EachPartition() {
		if p.Rows() != p.ValidRows() {
			t.Fatalf("partition %d keeps %d dead versions", i, p.Rows()-p.ValidRows())
		}
		if i >= base && i < base+n && p.RetiredRows() == 0 {
			t.Fatalf("reshard-created partition %d reclaimed nothing", i)
		}
	}
}

// TestLatestQueryUnderGC runs latest queries with a projection — one plan
// read by Table.Read on the one partition and by Read on the one-partition
// store, neither of which pins a snapshot — while two writers update and delete and
// garbage-collecting merges commit back to back.  Every call must succeed
// (no candidate reclaimed mid-query, no ErrRowInvalid) and return one
// state: keys in range, each at most once, each with a value written for
// it (v % n == k).
func TestLatestQueryUnderGC(t *testing.T) {
	st := newKV(t, 1)
	part := st.Partitions()[0]
	const n = 2000
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{uint64(i), uint64(i)}
	}
	gids, err := st.InsertRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := uint64(1); ; round++ {
				for k := w; k < n; k += 2 {
					select {
					case <-stop:
						return
					default:
					}
					// One key in seven is deleted and inserted afresh; the
					// rest get a new version of v.
					if (k+int(round))%7 == 0 {
						if err := st.Delete(gids[k]); err != nil {
							t.Errorf("writer %d: delete: %v", w, err)
							return
						}
						gid, err := st.Insert([]any{uint64(k), uint64(k)})
						if err != nil {
							t.Errorf("writer %d: insert: %v", w, err)
							return
						}
						gids[k] = gid
						continue
					}
					gid, err := st.Update(gids[k], map[string]any{"v": uint64(k) + round*n})
					if err != nil {
						t.Errorf("writer %d: update: %v", w, err)
						return
					}
					gids[k] = gid
				}
			}
		}()
	}
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
			rep, err := st.RequestMerge(context.Background(), table.MergeOptions{})
			if err != nil {
				t.Errorf("merge: %v", err)
				return
			}
			merges.Add(1)
			reclaimed.Add(int64(rep.RowsReclaimed))
		}
	}()

	check := 0
	for ; (check < 300 || merges.Load() < 10) && !t.Failed(); check++ {
		lo := uint64(check*97) % (n - 500)
		p, err := st.Schema().Plan([]table.Filter{
			{Column: "k", Op: table.Between, Value: lo, Hi: lo + 499},
			{Column: "v", Op: table.Between, Value: uint64(0), Hi: uint64(1) << 62},
		}, []string{"v", "k"})
		if err != nil {
			t.Fatal(err)
		}
		var res *table.Selection
		if check%2 == 0 {
			res, err = part.Read(table.Latest(), p)
		} else {
			res, err = Read(st, table.Latest(), p)
		}
		if err != nil {
			t.Errorf("check %d: query: %v", check, err)
			break
		}
		seen := map[uint64]bool{}
		for i, vals := range res.Values {
			v, k := vals[0].(uint64), vals[1].(uint64)
			if k < lo || k > lo+499 || v%n != k || seen[k] {
				t.Errorf("check %d: row %d = (k %d, v %d): out of range, inconsistent or repeated", check, res.Rows[i], k, v)
				break
			}
			seen[k] = true
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d queries across %d merges reclaiming %d versions", check, merges.Load(), reclaimed.Load())
	if reclaimed.Load() == 0 {
		t.Errorf("%d merges reclaimed nothing", merges.Load())
	}
}
