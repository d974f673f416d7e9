package main

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrise"
	"hyrise/client"
)

// topology names the live shard-topology series, in the order the
// reshard tests index them: active shards, physical partitions, shard-map
// version, migration in flight.
var topology = []string{"hyrise_store_shards", "hyrise_store_partitions", "hyrise_shard_map_version", "hyrise_store_resharding"}

// TestReshardAdminMode starts a daemon, grows it from 2 to 8 active
// shards with the -reshard admin mode (a second run invocation acting as
// a client), and checks the live topology and data through the protocol.
func TestReshardAdminMode(t *testing.T) {
	cfg := config{
		addr:          "127.0.0.1:0",
		table:         "sales",
		schema:        "k:uint64,v:uint64",
		shards:        2,
		mergeFraction: -1,
		compact:       false,
		drain:         15 * time.Second,
	}
	addr, stopDaemon := startDaemon(t, cfg)

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const rows = 500
	batch := make([][]any, rows)
	for i := range batch {
		batch[i] = []any{uint64(i), uint64(i)}
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}

	admin := config{addr: addr, reshard: 8, drain: time.Second}
	if err := run(context.Background(), admin, testLogger(t)); err != nil {
		t.Fatalf("hyrised -reshard 8: %v", err)
	}

	if top := series(t, c, topology...); top[0] != 8 || top[1] != 10 || top[3] != 0 {
		t.Fatalf("post-reshard topology %v = %v", topology, top)
	}
	for _, k := range []uint64{0, 250, 499} {
		ids, err := c.Lookup("k", k)
		if err != nil || len(ids) != 1 {
			t.Fatalf("Lookup(%d) = %v, %v", k, ids, err)
		}
	}
	if err := stopDaemon(); err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}
}

// TestReshardOneShardDaemon: `-shards 1 -key v` serves a one-shard store
// keyed on v (not silently on the first column), and that store reshards
// 1→3 online through the admin mode while pinned readers keep reading —
// every pinned read exact, none failed — and a follower daemon replays the
// same reshard from the op log.
func TestReshardOneShardDaemon(t *testing.T) {
	pcfg := config{
		addr:          "127.0.0.1:0",
		table:         "sales",
		schema:        "k:uint64,v:uint64",
		key:           "v",
		shards:        1,
		replicate:     true,
		mergeFraction: -1,
		drain:         15 * time.Second,
	}
	paddr, stopPrimary := startDaemon(t, pcfg)
	faddr, stopFollower := startDaemon(t, config{
		addr: "127.0.0.1:0", follow: paddr, mergeFraction: -1, drain: 15 * time.Second,
	})

	c, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, err := c.Stats(); err != nil || st.Shards != 1 || c.KeyColumn() != "v" {
		t.Fatalf("-shards 1 -key v serves shards=%d key=%q (%v)", st.Shards, c.KeyColumn(), err)
	}
	const rows = 600
	batch := make([][]any, rows)
	var wantSum uint64
	for i := range batch {
		batch[i] = []any{uint64(i), uint64(i * 3)}
		wantSum += uint64(i * 3)
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(snap)

	// Pinned readers run across the whole reshard.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, failed atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rc, err := client.Dial(paddr)
			if err != nil {
				t.Errorf("reader %d: dial: %v", r, err)
				return
			}
			defer rc.Close()
			for k := uint64(r); ; k = (k + 7) % rows {
				select {
				case <-stop:
					return
				default:
				}
				ids, err := rc.LookupAt(snap, "k", k)
				n, nerr := rc.CountEqualAt(snap, "v", k*3)
				sum, serr := rc.SumAt(snap, "v")
				reads.Add(3)
				if err != nil || len(ids) != 1 {
					failed.Add(1)
				}
				if nerr != nil || n != 1 {
					failed.Add(1)
				}
				if serr != nil || sum != wantSum {
					failed.Add(1)
				}
			}
		}(r)
	}

	// The reshard of 600 rows is over in a blink: make sure the readers
	// are reading before it starts, so they really straddle it.
	for deadline := time.Now().Add(10 * time.Second); reads.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("pinned readers never started")
		}
		time.Sleep(time.Millisecond)
	}
	admin := config{addr: paddr, reshard: 3, drain: time.Second}
	if err := run(context.Background(), admin, testLogger(t)); err != nil {
		t.Fatalf("hyrised -reshard 3 against a -shards 1 daemon: %v", err)
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 || failed.Load() != 0 {
		t.Fatalf("%d of %d pinned reads failed across the reshard", failed.Load(), reads.Load())
	}

	top := series(t, c, topology...)
	if top[0] != 3 || top[1] != 4 || top[3] != 0 {
		t.Fatalf("post-reshard topology %v = %v", topology, top)
	}
	for _, k := range []uint64{0, 299, 599} {
		if ids, err := c.Lookup("k", k); err != nil || len(ids) != 1 {
			t.Fatalf("Lookup(%d) = %v, %v", k, ids, err)
		}
	}

	// The follower replays the reshard and answers like the primary.
	after, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(after)
	e := uint64(after)
	fc, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	waitFollowerApplied(t, fc, e)
	if ftop := series(t, fc, topology...); ftop[0] != 3 || ftop[1] != 4 || ftop[2] != top[2] {
		t.Fatalf("follower topology %v = %v, primary %v", topology, ftop, top)
	}
	fsnap, err := fc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Release(fsnap)
	if sum, err := fc.SumAt(fsnap, "v"); err != nil || sum != wantSum {
		t.Fatalf("follower sum = %d, %v; want %d", sum, err, wantSum)
	}
	if n, err := fc.ValidRowsAt(fsnap); err != nil || n != rows {
		t.Fatalf("follower valid rows = %d, %v; want %d", n, err, rows)
	}

	if err := stopFollower(); err != nil {
		t.Fatalf("follower stop: %v", err)
	}
	if err := stopPrimary(); err != nil {
		t.Fatalf("primary stop: %v", err)
	}
}

// TestSchedulerFollowsReshardDaemon: a `-shards 1` daemon with the default
// scheduler is resharded to 3 by the admin mode and keeps ingesting.  The
// scheduler merges the partitions the reshard created (hyrise_merge_total
// grows, no partition's delta outgrows the trigger), and the shutdown
// compaction reaches every partition: the saved snapshot reloads with no
// delta rows and no dead versions anywhere, the retired partition
// included.
func TestSchedulerFollowsReshardDaemon(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "resharded.hyr")
	cfg := config{
		addr:          "127.0.0.1:0",
		table:         "sales",
		schema:        "k:uint64,v:uint64",
		shards:        1,
		snapshot:      snapPath,
		mergeFraction: 0.05,
		mergeInterval: 100 * time.Millisecond,
		compact:       true,
		drain:         15 * time.Second,
	}
	addr, stopDaemon := startDaemon(t, cfg)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const half = 20_000
	insert := func(from, to int) {
		t.Helper()
		batch := make([][]any, 0, to-from)
		for i := from; i < to; i++ {
			batch = append(batch, []any{uint64(i), uint64(i)})
		}
		if _, err := c.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	merges := func() float64 {
		t.Helper()
		samples, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		v, _ := client.MetricValue(samples, "hyrise_merge_total")
		return v
	}
	// bounded waits until no partition's delta exceeds the trigger.
	bounded := func(what string) client.Stats {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			stats, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			over := -1
			for i, p := range stats.Partitions {
				if float64(p.DeltaRows) > cfg.mergeFraction*float64(p.MainRows) {
					over = i
				}
			}
			if over < 0 {
				return stats
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: partition %d of %d never merged: %+v",
					what, over, len(stats.Partitions), stats.Partitions)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	insert(0, half)
	bounded("before the reshard")
	before := merges()

	admin := config{addr: addr, reshard: 3, drain: time.Second}
	if err := run(context.Background(), admin, testLogger(t)); err != nil {
		t.Fatalf("hyrised -reshard 3 against a -shards 1 daemon: %v", err)
	}
	insert(half, 2*half)
	stats := bounded("after the reshard")
	// The scheduler merges the sealed partition empty too, and its window
	// leaves the store: three partitions remain.
	for deadline := time.Now().Add(30 * time.Second); len(stats.Partitions) != 3 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		stats = bounded("after the reshard")
	}
	if len(stats.Partitions) != 3 || stats.ValidRows != 2*half {
		t.Fatalf("post-reshard stats: %d partitions, %d valid rows", len(stats.Partitions), stats.ValidRows)
	}
	if after := merges(); after < before+3 {
		t.Fatalf("hyrise_merge_total %v -> %v: the three new partitions were not all merged", before, after)
	}

	// A trickle below the trigger, then SIGTERM: -compact must fold it.
	insert(2*half, 2*half+30)
	c.Close()
	if err := stopDaemon(); err != nil {
		t.Fatalf("daemon stop: %v", err)
	}
	st, err := hyrise.LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Partitions()); got != 3 {
		t.Fatalf("reloaded %d partitions want 3", got)
	}
	for i, p := range st.Partitions() {
		if p.DeltaRows() != 0 || p.Rows() != p.ValidRows() {
			t.Fatalf("reloaded partition %d not compacted: delta=%d rows=%d valid=%d",
				i, p.DeltaRows(), p.Rows(), p.ValidRows())
		}
	}
	if st.ValidRows() != 2*half+30 {
		t.Fatalf("reloaded ValidRows = %d want %d", st.ValidRows(), 2*half+30)
	}
}
