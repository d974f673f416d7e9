package main

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hyrise/client"
)

// series reads the named series from a server's metrics snapshot; a
// missing one fails the test.
func series(t *testing.T, c *client.Client, names ...string) []float64 {
	t.Helper()
	samples, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	vals := make([]float64, len(names))
	for i, name := range names {
		v, ok := client.MetricValue(samples, name)
		if !ok {
			t.Fatalf("metrics snapshot lacks %s", name)
		}
		vals[i] = v
	}
	return vals
}

// waitFollowerApplied polls the follower daemon's applied-epoch gauge
// until it reaches e.
func waitFollowerApplied(t *testing.T, fc *client.Client, e uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		applied := uint64(series(t, fc, "hyrise_replica_applied_epoch")[0])
		if applied >= e {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epoch %d, want %d", applied, e)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHyrisedReplication is the replication acceptance test at the daemon
// level: a -replicate primary and a -follow follower run in-process,
// concurrent writers churn key-moving updates through the primary while a
// pooled client (Followers configured) routes pinned-snapshot reads; every
// routed read must be exact at its snapshot's epoch.  The follower daemon
// is then restarted and must re-bootstrap and converge, and after the
// writers quiesce the follower's own pinned reads must match the primary's
// bit for bit.
func TestHyrisedReplication(t *testing.T) {
	pcfg := config{
		addr:          "127.0.0.1:0",
		table:         "sales",
		schema:        "k:uint64,id:uint64,v:uint64",
		shards:        4,
		replicate:     true,
		mergeFraction: 0.01,
		mergeInterval: time.Millisecond,
		compact:       true,
		drain:         15 * time.Second,
	}
	paddr, stopPrimary := startDaemon(t, pcfg)
	fcfg := config{
		addr:          "127.0.0.1:0",
		follow:        paddr,
		mergeFraction: 0.01,
		mergeInterval: time.Millisecond,
		drain:         15 * time.Second,
	}
	faddr, stopFollower := startDaemon(t, fcfg)

	fc, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if fc.Role() != client.RoleFollower {
		t.Fatalf("follower daemon announced role %v", fc.Role())
	}
	if _, err := fc.Insert([]any{uint64(1), uint64(1), uint64(1)}); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("write on follower daemon: %v, want ErrReadOnly", err)
	}

	// Writers churn key-moving updates through the primary.
	const (
		writers = 3
		idsEach = 32
	)
	stopCh := make(chan struct{})
	var wg, seeded sync.WaitGroup
	seeded.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(paddr)
			if err != nil {
				t.Errorf("writer %d: dial: %v", w, err)
				return
			}
			defer c.Close()
			base := uint64(w * idsEach)
			rows := make([][]any, idsEach)
			for i := range rows {
				id := base + uint64(i)
				rows[i] = []any{id * 13, id, e2eChecksum(id, id*13)}
			}
			gids, err := c.InsertBatch(rows)
			seeded.Done()
			if err != nil {
				t.Errorf("writer %d: seed: %v", w, err)
				return
			}
			seq := uint64(w + 1)
			for {
				select {
				case <-stopCh:
					return
				default:
				}
				for i := range gids {
					seq = seq*6364136223846793005 + 1442695040888963407
					id := base + uint64(i)
					nk := seq % (1 << 14)
					ngid, err := c.Update(gids[i], map[string]any{
						"k": nk, "v": e2eChecksum(id, nk),
					})
					if err != nil {
						t.Errorf("writer %d: update: %v", w, err)
						return
					}
					gids[i] = ngid
				}
			}
		}(w)
	}

	// A pooled reader routes pinned-snapshot reads to the follower; every
	// read must be exact at the snapshot's epoch regardless of which server
	// answered.
	seeded.Wait()
	if t.Failed() {
		close(stopCh)
		wg.Wait()
		return
	}
	rc, err := client.DialOptions(paddr, client.Options{
		Followers:    []string{faddr},
		MaxStaleness: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	readRound := func(r int, wait bool) {
		snap, err := rc.Snapshot()
		if err != nil {
			t.Fatalf("round %d: snapshot: %v", r, err)
		}
		defer rc.Release(snap)
		if wait {
			// Let the follower apply the snapshot's epoch so the routed
			// reads below exercise it (fallback would also be correct).
			waitFollowerApplied(t, fc, uint64(snap))
		}
		n, err := rc.ValidRowsAt(snap)
		if err != nil {
			t.Fatalf("round %d: valid rows: %v", r, err)
		}
		if n != writers*idsEach {
			t.Fatalf("round %d: %d valid rows, want %d", r, n, writers*idsEach)
		}
		res, err := rc.QueryAt(snap, []client.Filter{
			{Column: "id", Op: client.Between, Value: uint64(0), Hi: uint64(writers * idsEach)},
		}, []string{"k", "id", "v"})
		if err != nil {
			t.Fatalf("round %d: query: %v", r, err)
		}
		var sum uint64
		for _, vals := range res.Values {
			k, id, v := vals[0].(uint64), vals[1].(uint64), vals[2].(uint64)
			if v != e2eChecksum(id, k) {
				t.Fatalf("round %d: torn row %v", r, vals)
			}
			sum += v
		}
		got, err := rc.SumAt(snap, "v")
		if err != nil {
			t.Fatalf("round %d: sum: %v", r, err)
		}
		if got != sum {
			t.Fatalf("round %d: SumAt %d != row sum %d", r, got, sum)
		}
	}
	for r := 0; r < 8; r++ {
		readRound(r, true)
	}

	// Restart the follower daemon: it must re-bootstrap from the primary
	// and converge again; routed reads keep working throughout (falling
	// back to the primary while it is down).
	if err := stopFollower(); err != nil {
		t.Fatalf("follower stop: %v", err)
	}
	fc.Close()
	readRound(100, false)
	fcfg.addr = "127.0.0.1:0"
	faddr2, stopFollower2 := startDaemon(t, fcfg)
	if fc, err = client.Dial(faddr2); err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// Quiesce, then the follower's own pinned reads must match the
	// primary's exactly.
	close(stopCh)
	wg.Wait()
	if t.Failed() {
		return
	}
	pc, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	psnap, err := pc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Release(psnap)
	e := uint64(psnap)
	psum, err := pc.SumAt(psnap, "v")
	if err != nil {
		t.Fatal(err)
	}
	pn, err := pc.ValidRowsAt(psnap)
	if err != nil {
		t.Fatal(err)
	}
	waitFollowerApplied(t, fc, e)
	fsnap, err := fc.Snapshot() // pins the follower at its applied epoch
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Release(fsnap)
	fsum, err := fc.SumAt(fsnap, "v")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := fc.ValidRowsAt(fsnap)
	if err != nil {
		t.Fatal(err)
	}
	if fsum != psum || fn != pn {
		t.Fatalf("follower diverged: sum %d/%d rows %d/%d", fsum, psum, fn, pn)
	}

	if err := stopFollower2(); err != nil {
		t.Fatalf("follower stop: %v", err)
	}
	if err := stopPrimary(); err != nil {
		t.Fatalf("primary stop: %v", err)
	}
}

// TestFollowFlagValidation pins the -follow flag's exclusions.
func TestFollowFlagValidation(t *testing.T) {
	logger := testLogger(t)
	if err := run(context.Background(), config{follow: "x", replicate: true}, logger); err == nil {
		t.Fatal("follow+replicate accepted")
	}
	if err := run(context.Background(), config{follow: "x", snapshot: "y"}, logger); err == nil {
		t.Fatal("follow+snapshot accepted")
	}
}
