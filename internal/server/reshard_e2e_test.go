package server_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hyrise/client"
	"hyrise/internal/shard"
)

// TestReshardOverProtocol drives an online reshard end to end through
// the wire protocol: concurrent clients read pinned snapshots with zero
// failures while Client.Reshard migrates the store 1 -> 4 shards, the
// report and the topology series of the metrics snapshot reflect the
// cutover, and the reshard counters land in /metrics.
func TestReshardOverProtocol(t *testing.T) {
	st, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, _, addr := startServer(t, st)

	const rows = 1000
	batch := make([][]any, 0, 100)
	for i := 0; i < rows; i++ {
		batch = append(batch, []any{uint64(i), uint32(i), fmt.Sprintf("p-%d", i)})
		if len(batch) == 100 {
			if _, err := c.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}

	// Readers on their own pooled client: capture a snapshot, verify a
	// handful of keys and the row-count invariant at it, release.  Every
	// read must succeed mid-migration.
	rc, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	stop := make(chan struct{})
	var failures atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for probe := 0; ; probe++ {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := rc.Snapshot()
				if err != nil {
					failures.Add(1)
					t.Errorf("snapshot: %v", err)
					return
				}
				key := uint64((r*997 + probe*131) % rows)
				ids, err := rc.LookupAt(snap, "order_id", key)
				if err != nil || len(ids) != 1 {
					failures.Add(1)
					t.Errorf("LookupAt(%d) = %v, %v", key, ids, err)
				}
				if n, err := rc.ValidRowsAt(snap); err != nil || n != rows {
					failures.Add(1)
					t.Errorf("ValidRowsAt = %d, %v", n, err)
				}
				rc.Release(snap)
			}
		}(r)
	}

	rep, err := c.Reshard(4)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if failures.Load() != 0 {
		t.Fatalf("%d failed reads during migration", failures.Load())
	}
	if rep.From != 1 || rep.To != 4 || rep.RowsMigrated != rows {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MapVersion == 0 || rep.CutoverEpoch == 0 || rep.Wall <= 0 {
		t.Fatalf("report missing cutover data: %+v", rep)
	}

	// Live topology over the wire.
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"hyrise_store_shards":      4,
		"hyrise_store_partitions":  5,
		"hyrise_shard_map_version": float64(rep.MapVersion),
		"hyrise_store_resharding":  0,
	} {
		if v, ok := client.MetricValue(samples, series); !ok || v != want {
			t.Fatalf("topology: %s = %v (present %v), want %v", series, v, ok, want)
		}
	}
	// The client's shard count is the live one.
	if cs, err := c.Stats(); err != nil || cs.Shards != 4 {
		t.Fatalf("Stats().Shards = %d (%v), want 4", cs.Shards, err)
	}

	// Data intact through the new routing.
	sum, err := c.Sum("qty")
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 0; i < rows; i++ {
		want += uint64(i)
	}
	if sum != want {
		t.Fatalf("Sum = %d want %d", sum, want)
	}

	// The reshard metrics moved.
	samples, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"hyrise_reshard_total":               1,
		"hyrise_reshard_rows_migrated_total": rows,
		"hyrise_store_shards":                4,
		"hyrise_shard_map_version":           float64(rep.MapVersion),
	} {
		if v, ok := client.MetricValue(samples, name); !ok || v != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, v, ok, want)
		}
	}
}
