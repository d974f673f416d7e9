package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hyrise/client"
)

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

// startDaemon runs the daemon in-process on an ephemeral port and
// returns its address plus a stop function that shuts it down gracefully
// and reports run's error.
func startDaemon(t *testing.T, cfg config) (string, func() error) {
	t.Helper()
	addrCh := make(chan string, 1)
	cfg.onReady = func(a string) { addrCh <- a }
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, cfg, testLogger(t)) }()
	select {
	case addr := <-addrCh:
		return addr, func() error {
			cancel()
			select {
			case err := <-runErr:
				return err
			case <-time.After(30 * time.Second):
				return fmt.Errorf("daemon did not stop")
			}
		}
	case err := <-runErr:
		cancel()
		t.Fatalf("daemon failed to start: %v", err)
		return "", nil
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
		return "", nil
	}
}

func e2eChecksum(id, k uint64) uint64 { return id*1_000_000_000 + k }

// TestHyrisedEndToEnd is the PR acceptance test: hyrised runs in-process
// on a 4-shard store, 4 concurrent clients do writes and pinned-snapshot
// reads while merges (scheduler + explicit Merge requests) run
// underneath, and every snapshot read is frozen and internally
// consistent.  The daemon then shuts down gracefully, compacts, saves
// its snapshot, and a restarted daemon serves the same data back.
func TestHyrisedEndToEnd(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "sales.hyr")
	cfg := config{
		addr:          "127.0.0.1:0",
		table:         "sales",
		schema:        "k:uint64,id:uint64,v:uint64",
		shards:        4,
		snapshot:      snapPath,
		index:         "id",
		mergeFraction: 0.01,
		mergeInterval: time.Millisecond,
		compact:       true,
		drain:         15 * time.Second,
	}
	addr, stopDaemon := startDaemon(t, cfg)

	const (
		clients   = 4
		idsEach   = 40
		roundsPer = 25
	)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("client %d: dial: %v", cl, err)
				return
			}
			defer c.Close()

			// Each client owns ids [base, base+idsEach).
			base := uint64(cl * idsEach)
			rows := make([][]any, idsEach)
			for i := range rows {
				id := base + uint64(i)
				k := id * 13
				rows[i] = []any{k, id, e2eChecksum(id, k)}
			}
			gids, err := c.InsertBatch(rows)
			if err != nil {
				t.Errorf("client %d: seed: %v", cl, err)
				return
			}

			seq := uint64(cl + 1)
			for r := 0; r < roundsPer; r++ {
				// Writes: key-moving updates of the client's own rows.
				for i := range gids {
					seq = seq*6364136223846793005 + 1442695040888963407
					id := base + uint64(i)
					nk := seq % (1 << 14)
					ngid, err := c.Update(gids[i], map[string]any{
						"k": nk, "v": e2eChecksum(id, nk),
					})
					if err != nil {
						t.Errorf("client %d: update: %v", cl, err)
						return
					}
					gids[i] = ngid
				}

				// Pinned-snapshot reads, verified for freezing and
				// internal consistency while everyone else writes and
				// merges run underneath.
				snap, err := c.Snapshot()
				if err != nil {
					t.Errorf("client %d: snapshot: %v", cl, err)
					return
				}
				sum1, err := c.SumAt(snap, "v")
				if err != nil {
					t.Errorf("client %d: sum: %v", cl, err)
					return
				}
				for i := 0; i < idsEach; i += 7 {
					id := base + uint64(i)
					rids, err := c.LookupAt(snap, "id", id)
					if err != nil || len(rids) != 1 {
						t.Errorf("client %d: id %d visible %d times under snap (%v)",
							cl, id, len(rids), err)
						return
					}
					row, err := c.Row(rids[0])
					if err != nil {
						t.Errorf("client %d: row: %v", cl, err)
						return
					}
					if row[2].(uint64) != e2eChecksum(row[1].(uint64), row[0].(uint64)) {
						t.Errorf("client %d: torn row under snap: %v", cl, row)
						return
					}
				}
				// More of the client's own writes, then the pin must not
				// have moved.
				for i := 0; i < 5; i++ {
					seq = seq*6364136223846793005 + 1442695040888963407
					id := base + uint64(i)
					nk := seq % (1 << 14)
					ngid, err := c.Update(gids[i], map[string]any{
						"k": nk, "v": e2eChecksum(id, nk),
					})
					if err != nil {
						t.Errorf("client %d: update: %v", cl, err)
						return
					}
					gids[i] = ngid
				}
				sum2, err := c.SumAt(snap, "v")
				if err != nil || sum1 != sum2 {
					t.Errorf("client %d: snapshot not frozen: %d then %d (%v)",
						cl, sum1, sum2, err)
					return
				}
				if err := c.Release(snap); err != nil {
					t.Errorf("client %d: release: %v", cl, err)
					return
				}

				// Explicit cross-shard merges from the client side, on
				// top of the daemon's scheduler; colliding with an
				// in-flight scheduled merge is a normal, typed outcome.
				if r%10 == 5 {
					if _, err := c.Merge(client.MergeOptions{Threads: 2}); err != nil &&
						!errors.Is(err, client.ErrMergeBusy) {
						t.Errorf("client %d: merge: %v", cl, err)
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Graceful stop: drains, compacts, saves.
	if err := stopDaemon(); err != nil {
		t.Fatalf("daemon stop: %v", err)
	}

	// Restart from the snapshot and verify the data (and its topology)
	// survived, compacted.
	addr2, stopDaemon2 := startDaemon(t, cfg)
	c, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, err := c.Stats(); err != nil || st.Shards != 4 {
		t.Fatalf("restarted topology: %d shards want 4 (%v)", st.Shards, err)
	}
	n, err := c.ValidRows()
	if err != nil {
		t.Fatal(err)
	}
	if n != clients*idsEach {
		t.Fatalf("restarted valid rows %d want %d", n, clients*idsEach)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaRows != 0 {
		t.Fatalf("restart should serve a compacted store, delta=%d", stats.DeltaRows)
	}
	// Indexes are in-memory only; -index must have re-created them over
	// the reloaded snapshot.
	istats, err := c.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(istats) != 1 || istats[0].Column != "id" || istats[0].Postings != clients*idsEach {
		t.Fatalf("restarted index stats %+v want %d postings on id", istats, clients*idsEach)
	}
	for id := uint64(0); id < clients*idsEach; id += 17 {
		rids, err := c.Lookup("id", id)
		if err != nil || len(rids) != 1 {
			t.Fatalf("restarted lookup id %d: %d rows (%v)", id, len(rids), err)
		}
		row, err := c.Row(rids[0])
		if err != nil {
			t.Fatal(err)
		}
		if row[2].(uint64) != e2eChecksum(row[1].(uint64), row[0].(uint64)) {
			t.Fatalf("restarted row torn: %v", row)
		}
	}
	if err := stopDaemon2(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// TestShutdownReleasesStalePins: a client that captured snapshots and
// vanished without releasing them must not pin the shutdown save — the
// daemon releases all registered tokens before its final compacting
// merge, so the snapshot reloads fully garbage-collected.
func TestShutdownReleasesStalePins(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "stale.hyr")
	cfg := config{
		addr:     "127.0.0.1:0",
		table:    "t",
		schema:   "k:uint64,v:uint64",
		shards:   2,
		snapshot: snapPath,
		compact:  true,
		drain:    10 * time.Second,
	}
	addr, stopDaemon := startDaemon(t, cfg)

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	ids := make([]int, n)
	for i := range ids {
		if ids[i], err = c.Insert([]any{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Pin history and never release — the misbehaving client.
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Invalidate every row once; the dead versions are pinned by the
	// stale token until shutdown.
	for i := range ids {
		if ids[i], err = c.Update(ids[i], map[string]any{"v": uint64(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close() // vanish without Release

	if err := stopDaemon(); err != nil {
		t.Fatalf("daemon stop: %v", err)
	}

	// The restarted daemon serves a compacted, garbage-collected store:
	// no deltas, no dead versions.
	addr2, stopDaemon2 := startDaemon(t, cfg)
	c2, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	stats, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaRows != 0 {
		t.Fatalf("restart should serve a compacted store, delta=%d", stats.DeltaRows)
	}
	if stats.Rows != stats.ValidRows || stats.ValidRows != n {
		t.Fatalf("stale pin leaked into the save: rows=%d valid=%d want %d",
			stats.Rows, stats.ValidRows, n)
	}
	// The current versions survived under their ids.
	for i, id := range ids {
		row, err := c2.Row(id)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row[1].(uint64) != uint64(1000+i) {
			t.Fatalf("row %d: v=%v want %d", i, row[1], 1000+i)
		}
	}
	if err := stopDaemon2(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// TestParseSchema pins the -schema flag grammar.
func TestParseSchema(t *testing.T) {
	s, err := parseSchema("k:uint64, qty:uint32 ,product:string")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 || s[0].Name != "k" || s[2].Name != "product" {
		t.Fatalf("schema %+v", s)
	}
	for _, bad := range []string{"", "k", "k:float", "k uint64"} {
		if _, err := parseSchema(bad); err == nil {
			t.Errorf("parseSchema(%q) accepted", bad)
		}
	}
}
