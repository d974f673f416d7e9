package server_test

import (
	"sync"
	"testing"
	"time"

	"hyrise/client"
	"hyrise/internal/sched"
	"hyrise/internal/shard"
	"hyrise/internal/table"
)

func stressSchema() table.Schema {
	return table.Schema{
		{Name: "k", Type: table.Uint64},  // shard key; updates move rows across shards
		{Name: "id", Type: table.Uint64}, // stable logical identity
		{Name: "v", Type: table.Uint64},  // checksum binding id and k
	}
}

func stressChecksum(id, k uint64) uint64 { return id*1_000_000_000 + k }

// TestServerStress is the server-boundary version of the snapshot stress
// test, run under -race in CI: N writer clients do mixed inserts,
// key-moving updates and deletes against a 4-shard store while the merge
// scheduler compacts underneath and M reader clients capture snapshot
// tokens and assert every token stays internally consistent — each
// stable id visible exactly once with an intact checksum, aggregates
// repeatable under the same token, and the visible row count matching
// the scan.
func TestServerStress(t *testing.T) {
	const (
		shards    = 4
		writers   = 4
		readers   = 3
		stableIDs = 120 // updated forever, never deleted
		dyingIDs  = 40  // deleted mid-run
		rounds    = 60  // update rounds per writer
	)
	st, err := shard.New("stress", stressSchema(), "k", shards)
	if err != nil {
		t.Fatal(err)
	}

	// The background scheduler keeps delta fractions bounded while the
	// traffic flows — the daemon's serving configuration in miniature.
	ms := sched.New(st.Partitions, sched.Config{Fraction: 0.01, Interval: time.Millisecond})
	if err := ms.Start(); err != nil {
		t.Fatal(err)
	}
	defer ms.Stop()

	seedClient, _, addr := startServer(t, st)

	// Seed through the network (batched), tracking each id's current gid.
	total := stableIDs + dyingIDs
	rows := make([][]any, total)
	for id := 0; id < total; id++ {
		k := uint64(id * 37)
		rows[id] = []any{k, uint64(id), stressChecksum(uint64(id), k)}
	}
	gids, err := seedClient.InsertBatch(rows)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex // guards gids across writers (disjoint ranges, but deletes share)
	getGid := func(id int) int {
		mu.Lock()
		defer mu.Unlock()
		return gids[id]
	}
	setGid := func(id, gid int) {
		mu.Lock()
		defer mu.Unlock()
		gids[id] = gid
	}

	var wg, writerWG sync.WaitGroup
	stop := make(chan struct{})

	// Writers: each its own pooled client, disjoint id ranges,
	// key-changing updates (cross-shard moves) plus mid-run deletes.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("writer %d dial: %v", w, err)
				return
			}
			defer c.Close()
			lo, hi := w*stableIDs/writers, (w+1)*stableIDs/writers
			dlo := stableIDs + w*dyingIDs/writers
			dhi := stableIDs + (w+1)*dyingIDs/writers
			seq := uint64(w)
			for r := 0; r < rounds; r++ {
				for id := lo; id < hi; id++ {
					seq = seq*6364136223846793005 + 1442695040888963407
					nk := seq % (1 << 16)
					ngid, err := c.Update(getGid(id), map[string]any{
						"k": nk, "v": stressChecksum(uint64(id), nk),
					})
					if err != nil {
						t.Errorf("writer %d id %d: %v", w, id, err)
						return
					}
					setGid(id, ngid)
				}
				if r == rounds/2 {
					for id := dlo; id < dhi; id++ {
						if err := c.Delete(getGid(id)); err != nil {
							t.Errorf("writer %d delete id %d: %v", w, id, err)
							return
						}
					}
				}
				// A fresh insert per round keeps the delta growing so the
				// scheduler has real work; ids beyond `total` are noise
				// the readers ignore.
				if _, err := c.Insert([]any{seq % 997, uint64(total) + seq%1_000_000, uint64(0)}); err != nil {
					t.Errorf("writer %d insert: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Readers: capture a token, verify internal consistency, release.
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("reader %d dial: %v", rd, err)
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := c.Snapshot()
				if err != nil {
					t.Errorf("reader %d snapshot: %v", rd, err)
					return
				}
				// One scan returns ids and full rows (ids collected under
				// the scan, rows read after — the server-side re-entrancy
				// fix is load-bearing here).
				_, visRows, err := c.ScanRowsAt(snap, "id", 0)
				if err != nil {
					t.Errorf("reader %d scan: %v", rd, err)
					return
				}
				seen := make(map[uint64]int)
				for _, row := range visRows {
					k, id, v := row[0].(uint64), row[1].(uint64), row[2].(uint64)
					if id < uint64(total) && v != stressChecksum(id, k) {
						t.Errorf("reader %d: torn row under snap %d: id=%d k=%d v=%d",
							rd, snap, id, k, v)
						return
					}
					seen[id]++
				}
				for id := uint64(0); id < stableIDs; id++ {
					if seen[id] != 1 {
						t.Errorf("reader %d: stable id %d visible %d times under snap %d, want 1",
							rd, id, seen[id], snap)
						return
					}
				}
				for id := uint64(stableIDs); id < uint64(total); id++ {
					if seen[id] > 1 {
						t.Errorf("reader %d: dying id %d visible %d times under snap %d",
							rd, id, seen[id], snap)
						return
					}
				}
				s1, err1 := c.SumAt(snap, "v")
				s2, err2 := c.SumAt(snap, "v")
				if err1 != nil || err2 != nil || s1 != s2 {
					t.Errorf("reader %d: sum not repeatable under snap %d: %d/%d (%v/%v)",
						rd, snap, s1, s2, err1, err2)
					return
				}
				if n, err := c.ValidRowsAt(snap); err != nil || n != len(visRows) {
					t.Errorf("reader %d: ValidRowsAt=%d scanned=%d (%v)", rd, n, len(visRows), err)
					return
				}
				if err := c.Release(snap); err != nil {
					t.Errorf("reader %d release: %v", rd, err)
					return
				}
			}
		}(rd)
	}

	writerWG.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := ms.LastErr(); err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	if ms.Merges() == 0 {
		t.Error("scheduler never merged during the stress run")
	}

	// Final ground truth through the network: stable ids each have
	// exactly one current row, dying ids none.
	for id := 0; id < stableIDs; id++ {
		if got, err := seedClient.Lookup("id", uint64(id)); err != nil || len(got) != 1 {
			t.Fatalf("final: stable id %d has %d current rows (%v)", id, len(got), err)
		}
	}
	for id := stableIDs; id < total; id++ {
		if got, _ := seedClient.Lookup("id", uint64(id)); len(got) != 0 {
			t.Fatalf("final: dying id %d still has %d rows", id, len(got))
		}
	}
}
