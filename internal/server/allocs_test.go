package server_test

import (
	"context"
	"fmt"
	"testing"

	"hyrise/client"
	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// TestServedAllocs counts the heap allocations of one served call —
// client encode, loopback round trip, server dispatch and store read, all
// in this process — with testing.AllocsPerRun.  Counts do not move with
// the host's load the way timings do, so the test fails above today's
// count plus one allocation of slack; a change that removes allocations
// lowers its count in the same change.  A read with an equality on the
// key column (lookup, count_equal, key_query) reads only the key's
// partition, so it costs the same at 2 shards as at 1.  snapshot_sum is
// sum at a registered snapshot's epoch, which reads through its pinned
// view instead of pinning one for the call.
func TestServedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const slack = 1
	counts := map[int]map[string]float64{
		1: {"ping": 8, "lookup": 22, "count_equal": 18, "key_query": 36, "range": 28, "sum": 13, "snapshot_sum": 13, "query": 73},
		2: {"ping": 8, "lookup": 22, "count_equal": 18, "key_query": 36, "range": 42, "sum": 20, "snapshot_sum": 19, "query": 95},
	}
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
			if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
				t.Fatal(err)
			}
			c, _, _ := startServer(t, st)
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			filters := []client.Filter{{Column: "qty", Op: client.Eq, Value: uint32(7)}}
			keyFilters := []client.Filter{{Column: "order_id", Op: client.Eq, Value: uint64(500)}}
			calls := map[string]func() error{
				"ping": c.Ping,
				"lookup": func() error {
					_, err := c.Lookup("order_id", uint64(500))
					return err
				},
				"range": func() error {
					_, err := c.Range("order_id", uint64(100), uint64(109))
					return err
				},
				"count_equal": func() error {
					_, err := c.CountEqual("order_id", uint64(500))
					return err
				},
				"key_query": func() error {
					_, err := c.Query(keyFilters, []string{"qty"})
					return err
				},
				"sum": func() error {
					_, err := c.Sum("qty")
					return err
				},
				"snapshot_sum": func() error {
					_, err := c.SumAt(snap, "qty")
					return err
				},
				"query": func() error {
					_, err := c.Query(filters, []string{"order_id"})
					return err
				},
			}
			for op, call := range calls {
				if err := call(); err != nil { // warm the pool and the code paths
					t.Fatal(err)
				}
				n := testing.AllocsPerRun(200, func() {
					if err := call(); err != nil {
						t.Fatal(err)
					}
				})
				if want := counts[shards][op]; n > want+slack {
					t.Errorf("served %s on %d shard(s): %v allocations, want at most %v+%d", op, shards, n, want, slack)
				}
			}
		})
	}
}
