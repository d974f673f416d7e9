package replica_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// TestReplicaReshardReplay reshards the primary 4 -> 8 while a writer
// churns, and asserts the follower replays the same migration from the
// op log into a bit-identical store — same partitions, same stable ids,
// same epochs, same values — and converges on the same topology.  A
// second follower bootstrapping after the fact must get the post-reshard
// topology from the snapshot image instead.
func TestReplicaReshardReplay(t *testing.T) {
	st, err := shard.New("repl", replSchema(), "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	p := startPrimary(t, st)

	const keys = 64
	gids := make([]int, keys)
	curKey := make([]uint64, keys)
	for i := 0; i < keys; i++ {
		curKey[i] = uint64(i)
		if gids[i], err = st.Insert([]any{uint64(i), uint32(i), fmt.Sprintf("row-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	rep := openReplica(t, p.addr)

	// Churn concurrently with the reshard: value updates, key moves and
	// deletes all race the migration pass, so the log interleaves moves
	// from both sources.  A write whose row the migration claimed first
	// observes table.ErrRowInvalid and retries through a key lookup,
	// exactly as the Reshard contract prescribes.
	update := func(i int, changes map[string]any) bool {
		for {
			ngid, err := st.Update(gids[i], changes)
			if err == nil {
				gids[i] = ngid
				if nk, ok := changes["k"]; ok {
					curKey[i] = nk.(uint64)
				}
				return true
			}
			if !errors.Is(err, table.ErrRowInvalid) {
				t.Errorf("update key %d: %v", curKey[i], err)
				return false
			}
			h, err := shard.ColumnOf[uint64](st, "k")
			if err != nil {
				t.Error(err)
				return false
			}
			found := h.Lookup(curKey[i])
			if len(found) != 1 {
				t.Errorf("relocating key %d: resolved %d times", curKey[i], len(found))
				return false
			}
			gids[i] = found[0]
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 4; round++ {
			for i := 0; i < keys; i++ {
				switch i % 3 {
				case 0:
					if !update(i, map[string]any{"v": uint32(round*1000 + i)}) {
						return
					}
				case 1:
					if !update(i, map[string]any{"k": uint64(i + (round+1)*10000)}) {
						return
					}
				case 2:
					if round == 3 && !update(i, map[string]any{"s": "final"}) {
						return
					}
				}
			}
		}
		// Delete a few rows at the end; deletes are valid in sealed
		// partitions, so no retry is needed.
		for i := 2; i < keys; i += 9 {
			if err := st.Delete(gids[i]); err != nil && !errors.Is(err, table.ErrRowInvalid) {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	rrep, err := st.Reshard(context.Background(), 8)
	if err != nil {
		t.Fatalf("Reshard under churn: %v", err)
	}
	wg.Wait()

	e := st.Clock().Capture()
	waitApplied(t, rep, e)
	requireIdentical(t, st, rep.Store())

	fs := rep.Store()
	if fs.NumShards() != 8 || len(fs.Partitions()) != len(st.Partitions()) {
		t.Fatalf("follower topology: shards=%d parts=%d, primary %d", fs.NumShards(), len(fs.Partitions()), len(st.Partitions()))
	}
	if fs.MapVersion() != st.MapVersion() || fs.MapVersion() != rrep.Version {
		t.Fatalf("map versions: follower %d, primary %d, report %d",
			fs.MapVersion(), st.MapVersion(), rrep.Version)
	}
	if fs.Resharding() {
		t.Fatal("follower still mid-reshard after cutover replay")
	}

	// A fresh bootstrap gets the new topology from the snapshot image and
	// still converges bit-identically.
	rep2 := openReplica(t, p.addr)
	waitApplied(t, rep2, e)
	requireIdentical(t, st, rep2.Store())
	if fs2 := rep2.Store(); fs2.NumShards() != 8 || fs2.MapVersion() != st.MapVersion() {
		t.Fatalf("bootstrap topology: shards=%d version=%d", fs2.NumShards(), fs2.MapVersion())
	}
}
