package server_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hyrise/client"
	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// TestStoreFieldCoverage finds every number the retired store-stats and
// index-stats opcodes carried in one of two places: the schema cached at
// Dial (name, key column) or a series of the metrics snapshot, with the
// exact value the store reports in process.  It runs on a 2-shard store
// with one indexed column, garbage-collected versions, a delta tail and a
// pinned snapshot, and again after an online reshard to 3 shards, when
// the partition families must list every physical partition, and once
// more after updates and deletes around one merge, when the summed
// valid-rows series must equal StoreStats().ValidRows.  With no writer
// running, client.Stats and client.IndexStats must equal the store's
// StoreStats and IndexStats field by field.
func TestStoreFieldCoverage(t *testing.T) {
	st, err := shard.New("sales", salesSchema(), "order_id", 2)
	if err != nil {
		t.Fatal(err)
	}
	c, srv, _ := startServer(t, st)
	requests := 2 // the Dial's hello and schema
	do := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		requests++
	}
	batch := func(lo, n int) [][]any {
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{uint64(lo + i), uint32(i), fmt.Sprintf("p%d", i%7)}
		}
		return rows
	}
	do(c.CreateIndex("product"))
	ids, err := c.InsertBatch(batch(0, 40))
	do(err)
	for _, id := range ids[:6] {
		_, err := c.Update(id, map[string]any{"qty": uint32(99)})
		do(err)
	}
	for _, id := range ids[6:10] {
		do(c.Delete(id))
	}
	_, err = c.Merge(client.MergeOptions{})
	do(err)
	_, err = c.InsertBatch(batch(100, 5))
	do(err)
	_, err = c.Snapshot()
	do(err)
	if s := st.StoreStats(); s.RetiredRows != 10 || s.ReclaimedBytes == 0 || s.DeltaRows != 5 {
		t.Fatalf("fixture: retired %d, reclaimed %d bytes, delta %d; want 10, >0, 5",
			s.RetiredRows, s.ReclaimedBytes, s.DeltaRows)
	}

	check := func(stage string) {
		t.Helper()
		samples, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		want := st.StoreStats()
		if c.Name() != want.Name || c.KeyColumn() != want.KeyColumn {
			t.Errorf("%s: schema name %q key %q, want %q %q", stage, c.Name(), c.KeyColumn(), want.Name, want.KeyColumn)
		}
		type field struct {
			name, series string
			want         float64
		}
		fields := []field{
			{"Shards", "hyrise_store_shards", float64(want.Shards)},
			{"MainRows", "hyrise_store_main_rows", float64(want.MainRows)},
			{"DeltaRows", "hyrise_store_delta_rows", float64(want.DeltaRows)},
			{"RetiredRows", "hyrise_gc_rows_retired_total", float64(want.RetiredRows)},
			{"ReclaimedBytes", "hyrise_gc_reclaimed_bytes_total", float64(want.ReclaimedBytes)},
			{"Merging", "hyrise_store_merging", 0},
			{"ActiveConns", "hyrise_server_connections", float64(srv.ActiveConns())},
			{"Snapshots", "hyrise_server_snapshots", 1},
		}
		var phys []int
		for i := range st.EachPartition() {
			phys = append(phys, i)
		}
		for j, p := range want.Partitions {
			i := phys[j]
			for _, f := range []struct {
				name string
				v    int
			}{{"rows", p.Rows}, {"valid_rows", p.ValidRows}, {"main_rows", p.MainRows},
				{"delta_rows", p.DeltaRows}, {"size_bytes", p.SizeBytes}} {
				fields = append(fields, field{fmt.Sprintf("Partitions[%d] %s", i, f.name),
					fmt.Sprintf(`hyrise_partition_%s{partition="%d"}`, f.name, i), float64(f.v)})
			}
		}
		idx := st.IndexStats()
		if len(idx) != 1 || idx[0].Column != "product" || idx[0].Builds < 2 {
			t.Fatalf("%s: store index stats %+v, want product built and rebuilt", stage, idx)
		}
		for _, is := range idx {
			col := fmt.Sprintf("{column=%q}", is.Column)
			fields = append(fields, []field{
				{"Postings", "hyrise_index_postings" + col, float64(is.Postings)},
				{"SizeBytes", "hyrise_index_bytes" + col, float64(is.SizeBytes)},
				{"Builds", "hyrise_index_builds_total" + col, float64(is.Builds)},
				{"LastBuild", "hyrise_index_last_build_seconds" + col, is.LastBuild.Seconds()},
			}...)
		}
		for _, f := range fields {
			if v, ok := client.MetricValue(samples, f.series); !ok || v != f.want {
				t.Errorf("%s: %s: %s = %v (present %v), want %v", stage, f.name, f.series, v, ok, f.want)
			}
		}
		var reqs float64
		parts := 0
		for _, m := range samples {
			if strings.HasPrefix(m.Name, "hyrise_server_requests_total{") {
				reqs += m.Value
			}
			if strings.HasPrefix(m.Name, "hyrise_partition_rows{") {
				parts++
			}
		}
		if reqs != float64(requests) {
			t.Errorf("%s: Requests: per-op series sum to %v, want %d", stage, reqs, requests)
		}
		if parts != len(phys) || parts != len(want.Partitions) {
			t.Errorf("%s: %d partition series, want %d", stage, parts, len(phys))
		}
		requests++ // the Metrics request itself

		got, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		wantStats := client.Stats{
			Name: want.Name, Shards: want.Shards, KeyColumn: want.KeyColumn,
			Rows: want.Rows, ValidRows: want.ValidRows, MainRows: want.MainRows,
			DeltaRows: want.DeltaRows, SizeBytes: want.SizeBytes,
			RetiredRows: want.RetiredRows, ReclaimedBytes: want.ReclaimedBytes,
			ActiveConns: srv.ActiveConns(), Requests: uint64(requests), Snapshots: 1,
		}
		for _, p := range want.Partitions {
			wantStats.Partitions = append(wantStats.Partitions, client.PartitionStats{
				Rows: p.Rows, ValidRows: p.ValidRows, MainRows: p.MainRows,
				DeltaRows: p.DeltaRows, SizeBytes: p.SizeBytes,
			})
		}
		if !reflect.DeepEqual(got, wantStats) {
			t.Errorf("%s: client.Stats\n got  %+v\n want %+v", stage, got, wantStats)
		}
		requests++

		gotIdx, err := c.IndexStats()
		if err != nil {
			t.Fatal(err)
		}
		var wantIdx []client.IndexStat
		for _, is := range idx {
			wantIdx = append(wantIdx, client.IndexStat{Column: is.Column, Postings: is.Postings,
				SizeBytes: is.SizeBytes, Builds: is.Builds, LastBuild: is.LastBuild})
		}
		if !reflect.DeepEqual(gotIdx, wantIdx) {
			t.Errorf("%s: client.IndexStats\n got  %+v\n want %+v", stage, gotIdx, wantIdx)
		}
		requests++
	}

	check("2 shards")
	_, err = c.Reshard(3)
	do(err)
	if st.NumShards() != 3 || len(st.Partitions()) <= 3 {
		t.Fatalf("after reshard: %d shards over %d partitions", st.NumShards(), len(st.Partitions()))
	}
	check("after reshard to 3")

	// Churn around one merge leaves invalidated versions in the mains and
	// the deltas; a partition's valid rows are then one count (the Count
	// plan) whether read by StoreStats, ValidRows or the series.
	for k := 10; k < 30; k++ {
		ids, err := c.Lookup("order_id", uint64(k))
		do(err)
		if k%3 == 0 {
			do(c.Delete(ids[0]))
		} else {
			_, err = c.Update(ids[0], map[string]any{"qty": uint32(k)})
			do(err)
		}
		if k == 20 {
			_, err = c.Merge(client.MergeOptions{})
			do(err)
		}
	}
	check("churned")
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	series := 0.0
	for _, m := range samples {
		if strings.HasPrefix(m.Name, "hyrise_partition_valid_rows{") {
			series += m.Value
		}
	}
	if s := st.StoreStats(); float64(s.ValidRows) != series || s.ValidRows != st.ValidRows() || s.ValidRows == s.Rows {
		t.Fatalf("churned: StoreStats().ValidRows %d, series sum %v, ValidRows() %d, of %d rows",
			s.ValidRows, series, st.ValidRows(), s.Rows)
	}
}

// TestReadPartitionsCounted: hyrise_read_partitions_total counts the
// partitions the store's read fan-out reads, so on a 2-shard store a key
// Lookup adds exactly 1 (the key's partition) and a Sum exactly 2 — a
// count of the routed reads that does not move with the host's load.
func TestReadPartitionsCounted(t *testing.T) {
	st, err := shard.New("sales", salesSchema(), "order_id", 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 200)
	for i := range rows {
		rows[i] = []any{uint64(i), uint32(1), "p"}
	}
	if _, err := st.InsertRows(rows); err != nil {
		t.Fatal(err)
	}
	c, _, _ := startServer(t, st)
	read := func() float64 {
		t.Helper()
		samples, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := client.MetricValue(samples, "hyrise_read_partitions_total")
		if !ok {
			t.Fatal("no hyrise_read_partitions_total series")
		}
		return v
	}
	before := read()
	for i := range 100 {
		ids, err := c.Lookup("order_id", uint64(i))
		if err != nil || len(ids) != 1 {
			t.Fatalf("Lookup(%d) = %v, %v", i, ids, err)
		}
	}
	if got := read() - before; got != 100 {
		t.Errorf("100 key Lookups read %v partitions, want 100", got)
	}
	before = read()
	if sum, err := c.Sum("qty"); err != nil || sum != 200 {
		t.Fatalf("Sum = %d, %v", sum, err)
	}
	if got := read() - before; got != 2 {
		t.Errorf("a Sum read %v partitions, want 2", got)
	}
}

// TestQueryPlannerCounted: the hyrise_query_* series count the seed phases
// of served queries, one per partition read, and add up the partitions'
// estimated and actual seed rows.  On a merged store with an index on qty,
// a query on unindexed product seeds once per shard, one on indexed qty
// once per shard from the index, a key equality once (its partition
// only), and a Lookup not at all.
func TestQueryPlannerCounted(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st, err := shard.New("sales", salesSchema(), "order_id", shards)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([][]any, 1000)
			for i := range rows {
				rows[i] = []any{uint64(i), uint32(i % 50), fmt.Sprintf("p%d", i%7)}
			}
			if _, err := st.InsertRows(rows); err != nil {
				t.Fatal(err)
			}
			if err := st.CreateIndex("qty"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
				t.Fatal(err)
			}
			c, _, _ := startServer(t, st)
			names := []string{"hyrise_query_seeds_total", "hyrise_query_estimated_rows_total",
				"hyrise_query_actual_rows_total", "hyrise_query_indexed_seeds_total"}
			read := func() (v [4]float64) {
				t.Helper()
				samples, err := c.Metrics()
				if err != nil {
					t.Fatal(err)
				}
				for i, name := range names {
					var ok bool
					if v[i], ok = client.MetricValue(samples, name); !ok {
						t.Fatalf("no %s series", name)
					}
				}
				return v
			}
			// partitions sums each partition's planner account of the
			// predicate over the partitions holding a match, or all.
			partitions := func(pred table.Pred, matchOnly bool) (est, seeded float64) {
				t.Helper()
				for _, p := range st.Partitions() {
					sel, err := p.Read(table.Latest(), table.Plan{Preds: []table.Pred{pred}})
					if err != nil {
						t.Fatal(err)
					}
					if !matchOnly || len(sel.Rows) > 0 {
						est += float64(sel.Estimate)
						seeded += float64(sel.Seeded)
					}
				}
				return est, seeded
			}
			n := float64(shards)
			for _, tc := range []struct {
				name string
				call func() error
				pred table.Pred
				key  bool
				want [4]float64 // seeds, _, _, indexed seeds
			}{
				{"product query", func() error {
					_, err := c.Query([]client.Filter{{Column: "product", Op: client.Eq, Value: "p3"}}, []string{"order_id"})
					return err
				}, table.Pred{Col: 2, Lo: "p3"}, false, [4]float64{n, 0, 0, 0}},
				{"qty query", func() error {
					_, err := c.Query([]client.Filter{{Column: "qty", Op: client.Eq, Value: uint32(7)}}, nil)
					return err
				}, table.Pred{Col: 1, Lo: uint32(7)}, false, [4]float64{n, 0, 0, n}},
				{"key query", func() error {
					_, err := c.Query([]client.Filter{{Column: "order_id", Op: client.Eq, Value: uint64(500)}}, []string{"qty"})
					return err
				}, table.Pred{Col: 0, Lo: uint64(500)}, true, [4]float64{1, 0, 0, 0}},
				{"lookup", func() error {
					_, err := c.Lookup("order_id", uint64(500))
					return err
				}, table.Pred{}, false, [4]float64{}},
			} {
				want := tc.want
				if tc.want[0] > 0 {
					want[1], want[2] = partitions(tc.pred, tc.key)
				}
				before := read()
				if err := tc.call(); err != nil {
					t.Fatal(err)
				}
				after := read()
				for i := range after {
					if got := after[i] - before[i]; got != want[i] {
						t.Errorf("%s on %d shard(s): %s advanced by %v, want %v", tc.name, shards, names[i], got, want[i])
					}
				}
			}
		})
	}
}
