package hyrise_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hyrise"
)

func kvSchema() hyrise.Schema {
	return hyrise.Schema{
		{Name: "k", Type: hyrise.Uint64},
		{Name: "v", Type: hyrise.Uint64},
	}
}

// newStores returns a one-shard and an eight-shard store over the same
// schema.
func newStores(t *testing.T) map[string]*hyrise.Table {
	t.Helper()
	one, err := hyrise.NewTable("kv", kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	eight, err := hyrise.NewShardedTable("kv", kvSchema(), "k", 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*hyrise.Table{"shards=1": one, "shards=8": eight}
}

// replayStore replays a deterministic operation sequence against s purely
// through the public Table API (Insert/InsertRows/Update/Delete/RequestMerge
// and the unified ColumnOf/NumericColumnOf/Query reads) and returns a
// transcript of every observation.  Two stores replayed with the same seed
// must produce identical transcripts — row ids are deliberately excluded,
// since they encode the owning partition.
func replayStore(t *testing.T, s *hyrise.Table, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kh, err := hyrise.ColumnOf[uint64](s, "k")
	if err != nil {
		t.Fatal(err)
	}
	vn, err := hyrise.NumericColumnOf[uint64](s, "v")
	if err != nil {
		t.Fatal(err)
	}

	const domain = 40 // dense key collisions
	var live []int    // row ids known valid, in replay order
	var obs []string

	// vals materializes the (k, v) pairs of rows as a sorted multiset.
	vals := func(rows []int) [][2]uint64 {
		out := make([][2]uint64, 0, len(rows))
		for _, r := range rows {
			row, err := s.Row(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, [2]uint64{row[0].(uint64), row[1].(uint64)})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i][0] != out[j][0] {
				return out[i][0] < out[j][0]
			}
			return out[i][1] < out[j][1]
		})
		return out
	}

	record := func(step int) {
		obs = append(obs, fmt.Sprintf("step=%d rows=%d valid=%d main=%d delta=%d",
			step, s.Rows(), s.ValidRows(), s.MainRows(), s.DeltaRows()))
		for k := uint64(0); k < domain; k++ {
			obs = append(obs, fmt.Sprintf("lookup(%d)=%v", k, vals(kh.Lookup(k))))
		}
		lo := rng.Uint64() % domain
		hi := lo + rng.Uint64()%10
		obs = append(obs, fmt.Sprintf("range(%d,%d)=%v", lo, hi, vals(kh.Range(lo, hi))))
		obs = append(obs, fmt.Sprintf("sum=%d distinct=%d", vn.Sum(), kh.Distinct()))
		res, err := hyrise.Query(s, []hyrise.Filter{
			{Column: "k", Op: hyrise.FilterBetween, Value: lo, Hi: hi},
		}, []string{"v"})
		if err != nil {
			t.Fatal(err)
		}
		projected := make([]uint64, 0, len(res.Values))
		for _, row := range res.Values {
			projected = append(projected, row[0].(uint64))
		}
		sort.Slice(projected, func(i, j int) bool { return projected[i] < projected[j] })
		obs = append(obs, fmt.Sprintf("query(%d,%d)=%v", lo, hi, projected))
	}

	// observeAt records the store's state as seen through a snapshot view:
	// the same observation set as record, evaluated with the *At reads.
	observeAt := func(view hyrise.ReadView) []string {
		var out []string
		out = append(out, fmt.Sprintf("snap-valid=%d", s.ValidRowsAt(view)))
		for k := uint64(0); k < domain; k++ {
			out = append(out, fmt.Sprintf("snap-lookup(%d)=%v", k, vals(kh.LookupAt(view, k))))
		}
		out = append(out, fmt.Sprintf("snap-range=%v", vals(kh.RangeAt(view, 5, 15))))
		out = append(out, fmt.Sprintf("snap-sum=%d", vn.SumAt(view)))
		res, err := hyrise.QueryAt(s, view, []hyrise.Filter{
			{Column: "k", Op: hyrise.FilterBetween, Value: uint64(0), Hi: uint64(domain)},
		}, []string{"v"})
		if err != nil {
			t.Fatal(err)
		}
		projected := make([]uint64, 0, len(res.Values))
		for _, row := range res.Values {
			projected = append(projected, row[0].(uint64))
		}
		sort.Slice(projected, func(i, j int) bool { return projected[i] < projected[j] })
		out = append(out, fmt.Sprintf("snap-query=%v", projected))
		return out
	}

	// A snapshot captured mid-history must keep answering with the state at
	// its capture point for the rest of the replay.
	const snapStep = 14
	var snapView hyrise.ReadView
	var snapWant []string

	for step := 0; step < 30; step++ {
		for op := 0; op < 80; op++ {
			switch rng.Intn(12) {
			case 0, 1, 2: // single insert
				id, err := s.Insert([]any{rng.Uint64() % domain, rng.Uint64() % 1000})
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			case 3, 4: // batch insert
				n := 1 + rng.Intn(5)
				batch := make([][]any, n)
				for i := range batch {
					batch[i] = []any{rng.Uint64() % domain, rng.Uint64() % 1000}
				}
				ids, err := s.InsertRows(batch)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, ids...)
			case 5, 6, 7: // update a live row; half the time change the key
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				changes := map[string]any{"v": rng.Uint64() % 1000}
				if rng.Intn(2) == 0 {
					changes["k"] = rng.Uint64() % domain
				}
				nid, err := s.Update(live[i], changes)
				if err != nil {
					t.Fatalf("update: %v", err)
				}
				live[i] = nid
			case 8: // delete a live row
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				if err := s.Delete(live[i]); err != nil {
					t.Fatalf("delete: %v", err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case 9: // stale-id operations fail identically
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				id := live[i]
				_ = s.Delete(id)
				err := s.Delete(id)
				obs = append(obs, fmt.Sprintf("stale-delete-errors=%v", err != nil))
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default: // read keeps the mix honest
				_ = kh.Lookup(rng.Uint64() % domain)
			}
		}
		if step%3 == 2 {
			if _, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{
				Threads: 1 + rng.Intn(4),
			}); err != nil {
				t.Fatal(err)
			}
		}
		record(step)
		if step == snapStep {
			// Capture mid-history: at capture time the snapshot answers
			// exactly like the live store (the model state at this point).
			snapView = s.Snapshot()
			snapWant = observeAt(snapView)
			obs = append(obs, snapWant...)
		}
	}
	// The rest of the history (inserts, updates, deletes, merges) has run;
	// the mid-history snapshot must still match the state at its capture.
	snapGot := observeAt(snapView)
	for i := range snapWant {
		if snapGot[i] != snapWant[i] {
			t.Fatalf("mid-history snapshot drifted at entry %d:\nat capture: %s\nat end:     %s",
				i, snapWant[i], snapGot[i])
		}
	}
	obs = append(obs, snapGot...)
	return obs
}

// TestStoreModelEquivalence replays the same deterministic workload against
// one shard and against eight, driving each store exclusively through the
// public Table API, and requires byte-identical observation transcripts: the
// shard count must not change the visible data at any step.
func TestStoreModelEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			stores := newStores(t)
			want := replayStore(t, stores["shards=1"], seed)
			got := replayStore(t, stores["shards=8"], seed)
			if len(want) != len(got) {
				t.Fatalf("transcript lengths: shards=1: %d, shards=8: %d", len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("transcript diverged at entry %d:\nshards=1: %s\nshards=8: %s",
						i, want[i], got[i])
				}
			}
		})
	}
}

// TestStoreConformance pins the interface contract at both shard counts.
func TestStoreConformance(t *testing.T) {
	for name, s := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			if s.Name() != "kv" || len(s.Schema()) != 2 {
				t.Fatalf("identity: %q %v", s.Name(), s.Schema())
			}
			ids, err := s.InsertRows([][]any{
				{uint64(1), uint64(10)},
				{uint64(2), uint64(20)},
				{uint64(3), uint64(30)},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 3 {
				t.Fatalf("ids=%v", ids)
			}
			// A bad batch is rejected whole: nothing lands.
			if _, err := s.InsertRows([][]any{{uint64(4), uint64(40)}, {uint64(5)}}); err == nil {
				t.Fatal("short row accepted")
			}
			if s.Rows() != 3 {
				t.Fatalf("rows=%d after rejected batch", s.Rows())
			}
			if !s.IsValid(ids[0]) {
				t.Fatal("inserted row invalid")
			}
			row, err := s.Row(ids[1])
			if err != nil || row[0].(uint64) != 2 {
				t.Fatalf("row=%v err=%v", row, err)
			}
			rep, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.RowsMerged != 3 || s.MainRows() != 3 || s.DeltaRows() != 0 {
				t.Fatalf("merge: %+v main=%d delta=%d", rep, s.MainRows(), s.DeltaRows())
			}
			st := s.StoreStats()
			if st.Rows != 3 || len(st.Partitions) != len(s.Partitions()) {
				t.Fatalf("stats: %+v", st)
			}
			if st.Shards != s.NumShards() || st.KeyColumn != "k" {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

// TestStorePersistenceRoundTrip drives Save/Load through the public API
// at both shard counts: the loaded store has the same shard layout,
// identical query results, the same row ids, invalidations and per-shard
// main/delta split.
func TestStorePersistenceRoundTrip(t *testing.T) {
	for name, s := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			var ids []int
			for i := 0; i < 500; i++ {
				id, err := s.Insert([]any{uint64(i % 50), uint64(i)})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if err := s.Delete(ids[3]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Update(ids[7], map[string]any{"v": uint64(9999)}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
				t.Fatal(err)
			}
			// Fresh delta rows and a main invalidation after the merge.
			if _, err := s.InsertRows([][]any{{uint64(1), uint64(111)}, {uint64(2), uint64(222)}}); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(ids[10]); err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			if err := hyrise.Save(s, &buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := hyrise.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.NumShards() != s.NumShards() || loaded.KeyColumn() != "k" {
				t.Fatalf("shard layout: %d/%q", loaded.NumShards(), loaded.KeyColumn())
			}

			if loaded.Rows() != s.Rows() || loaded.ValidRows() != s.ValidRows() ||
				loaded.MainRows() != s.MainRows() || loaded.DeltaRows() != s.DeltaRows() {
				t.Fatalf("counts: rows=%d/%d valid=%d/%d main=%d/%d delta=%d/%d",
					loaded.Rows(), s.Rows(), loaded.ValidRows(), s.ValidRows(),
					loaded.MainRows(), s.MainRows(), loaded.DeltaRows(), s.DeltaRows())
			}
			// Every original row id resolves to the same values and validity
			// — global ids survived.  Ids
			// reclaimed by the pre-save GC merge must stay reclaimed after
			// the reload (both sides fail identically).
			for _, id := range ids {
				want, werr := s.Row(id)
				have, herr := loaded.Row(id)
				if (werr == nil) != (herr == nil) {
					t.Fatalf("id %d: error diverged: %v vs %v", id, werr, herr)
				}
				if werr != nil {
					continue // reclaimed on both sides
				}
				for c := range want {
					if want[c] != have[c] {
						t.Fatalf("id %d col %d: %v want %v", id, c, have[c], want[c])
					}
				}
				if s.IsValid(id) != loaded.IsValid(id) {
					t.Fatalf("id %d validity diverged", id)
				}
			}
			// Identical query results, including row ids.
			for _, filters := range [][]hyrise.Filter{
				{{Column: "k", Op: hyrise.FilterEq, Value: uint64(7)}},
				{{Column: "k", Op: hyrise.FilterBetween, Value: uint64(10), Hi: uint64(20)}},
			} {
				want, err := hyrise.Query(s, filters, []string{"v"})
				if err != nil {
					t.Fatal(err)
				}
				have, err := hyrise.Query(loaded, filters, []string{"v"})
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Rows) != len(have.Rows) {
					t.Fatalf("query rows: %d want %d", len(have.Rows), len(want.Rows))
				}
				for i := range want.Rows {
					if want.Rows[i] != have.Rows[i] || want.Values[i][0] != have.Values[i][0] {
						t.Fatalf("query row %d diverged", i)
					}
				}
			}
		})
	}
}

// TestQueryEchoesProjection pins QueryResult.Columns: the projected names
// in the order asked (nil without a projection), with Values[i] holding
// those columns of Rows[i].
func TestQueryEchoesProjection(t *testing.T) {
	for name, st := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			for k := uint64(0); k < 20; k++ {
				if _, err := st.Insert([]any{k, k * 10}); err != nil {
					t.Fatal(err)
				}
			}
			filters := []hyrise.Filter{{Column: "k", Op: hyrise.FilterBetween, Value: uint64(3), Hi: uint64(5)}}
			res, err := hyrise.Query(st, filters, []string{"v", "k"})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Columns) != 2 || res.Columns[0] != "v" || res.Columns[1] != "k" {
				t.Fatalf("columns = %v, want [v k]", res.Columns)
			}
			if res.Count() != 3 || len(res.Values) != 3 {
				t.Fatalf("rows %v values %v, want 3 of each", res.Rows, res.Values)
			}
			for i, v := range res.Values {
				if v[0] != v[1].(uint64)*10 {
					t.Fatalf("values[%d] = %v, want [10k k]", i, v)
				}
			}
			res, err = hyrise.Query(st, filters, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Columns != nil || res.Values != nil || res.Count() != 3 {
				t.Fatalf("no projection: columns %v values %v rows %v", res.Columns, res.Values, res.Rows)
			}
		})
	}
}
