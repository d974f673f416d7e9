package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hyrise/internal/oplog"
	"hyrise/internal/table"
)

func TestReshardBasic(t *testing.T) {
	st := newKV(t, 2)
	const rows = 300
	var sum uint64
	oldGids := make([]int, rows)
	for i := 0; i < rows; i++ {
		gid, err := st.Insert([]any{uint64(i), uint64(i * 10)})
		if err != nil {
			t.Fatal(err)
		}
		oldGids[i] = gid
		sum += uint64(i * 10)
	}

	rep, err := st.Reshard(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != 2 || rep.To != 4 || rep.RowsMigrated != rows || rep.Version != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if st.NumShards() != 4 || len(st.Partitions()) != 6 || st.MapVersion() != 3 || st.Resharding() {
		t.Fatalf("topology: shards=%d parts=%d version=%d resharding=%v",
			st.NumShards(), len(st.Partitions()), st.MapVersion(), st.Resharding())
	}
	if base, n := st.ActiveWindow(); base != 2 || n != 4 {
		t.Fatalf("active window = [%d,%d)", base, base+n)
	}

	// Every row survives under a new global id; the old ids are spent
	// exactly as if a concurrent update had relocated the row.
	if got := st.ValidRows(); got != rows {
		t.Fatalf("ValidRows = %d want %d", got, rows)
	}
	h, err := NumericColumnOf[uint64](st, "v")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Sum(); got != sum {
		t.Fatalf("Sum = %d want %d", got, sum)
	}
	k, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		gids := k.Lookup(uint64(i))
		if len(gids) != 1 {
			t.Fatalf("Lookup(%d) = %v", i, gids)
		}
		if gids[0] == oldGids[i] {
			t.Fatalf("key %d kept pre-migration gid %d", i, gids[0])
		}
		if st.IsValid(oldGids[i]) {
			t.Fatalf("old gid %d still valid", oldGids[i])
		}
		if vals, err := st.Row(gids[0]); err != nil || vals[0] != uint64(i) {
			t.Fatalf("Row(%d) = %v, %v", gids[0], vals, err)
		}
	}
	// New inserts route into the new window only.
	gid, err := st.Insert([]any{uint64(rows), uint64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if phys := gid >> localBits; phys < 2 {
		t.Fatalf("post-reshard insert landed in sealed partition %d", phys)
	}
}

func TestReshardNoOpAndValidation(t *testing.T) {
	st := newKV(t, 2)
	rep, err := st.Reshard(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != 2 || rep.To != 2 || rep.Version != 1 || len(st.Partitions()) != 2 {
		t.Fatalf("no-op reshard: %+v, parts=%d", rep, len(st.Partitions()))
	}
	if _, err := st.Reshard(context.Background(), 0); !errors.Is(err, ErrNoShards) {
		t.Fatalf("Reshard(0): %v", err)
	}
	if _, err := st.Reshard(context.Background(), MaxShards); !errors.Is(err, ErrNoShards) {
		t.Fatalf("Reshard over partition budget: %v", err)
	}
}

// TestReshardSnapshotStability pins a snapshot, reshards underneath it,
// churns and GC-merges, and asserts the pinned reads never change: the
// pre-move versions stay readable in the sealed partitions because the
// pin can see them.
func TestReshardSnapshotStability(t *testing.T) {
	st := newKV(t, 2)
	const rows = 200
	for i := 0; i < rows; i++ {
		if _, err := st.Insert([]any{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	k, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}

	snap := st.Snapshot()
	defer snap.Release()
	v, err := NumericColumnOf[uint64](st, "v")
	if err != nil {
		t.Fatal(err)
	}
	wantSum := v.SumAt(snap)
	wantValid := st.ValidRowsAt(snap)
	wantGids := make(map[uint64][]int, rows)
	for i := 0; i < rows; i++ {
		wantGids[uint64(i)] = k.LookupAt(snap, uint64(i))
	}

	if _, err := st.Reshard(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	// Churn every row past the snapshot and GC-merge everywhere; the only
	// thing keeping the snapshot's versions alive is its pin.
	k2, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		gids := k2.Lookup(uint64(i))
		if len(gids) != 1 {
			t.Fatalf("post-reshard Lookup(%d) = %v", i, gids)
		}
		if _, err := st.Update(gids[0], map[string]any{"v": uint64(i + 100000)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}

	// The pre-reshard handles cover every partition a version visible at
	// the snapshot epoch can live in.
	if got := v.SumAt(snap); got != wantSum {
		t.Fatalf("SumAt after reshard = %d want %d", got, wantSum)
	}
	if got := st.ValidRowsAt(snap); got != wantValid {
		t.Fatalf("ValidRowsAt after reshard = %d want %d", got, wantValid)
	}
	for key, want := range wantGids {
		if got := k.LookupAt(snap, key); len(got) != len(want) || (len(got) == 1 && got[0] != want[0]) {
			t.Fatalf("LookupAt(%d) = %v want %v", key, got, want)
		}
	}
}

// TestReshardCancelledStillCutsOver checks the lazy-drain contract: a
// cancelled migration cuts over anyway, unmigrated rows stay readable in
// their sealed partitions, and the next reshard finishes the drain.
func TestReshardCancelledStillCutsOver(t *testing.T) {
	st := newKV(t, 2)
	const rows = 100
	for i := 0; i < rows; i++ {
		if _, err := st.Insert([]any{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := st.Reshard(ctx, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled reshard: %v", err)
	}
	if rep.RowsMigrated != 0 {
		t.Fatalf("migrated %d rows under a dead context", rep.RowsMigrated)
	}
	if st.NumShards() != 4 || st.Resharding() || st.MapVersion() != 3 {
		t.Fatalf("no cutover: shards=%d resharding=%v version=%d",
			st.NumShards(), st.Resharding(), st.MapVersion())
	}

	// Rows were not drained: still valid where they were, still readable.
	k, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.ValidRows(); got != rows {
		t.Fatalf("ValidRows = %d want %d", got, rows)
	}
	for i := 0; i < rows; i++ {
		if gids := k.Lookup(uint64(i)); len(gids) != 1 {
			t.Fatalf("Lookup(%d) = %v", i, gids)
		}
	}
	// An update relocates its row out of the sealed partition by itself.
	gids := k.Lookup(3)
	ngid, err := st.Update(gids[0], map[string]any{"v": uint64(999)})
	if err != nil {
		t.Fatal(err)
	}
	if phys := ngid >> localBits; phys < 2 {
		t.Fatalf("update stayed in sealed partition %d", phys)
	}

	// The next reshard drains the leftovers from every sealed partition.
	rep, err = st.Reshard(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsMigrated != rows {
		t.Fatalf("second reshard migrated %d want %d", rep.RowsMigrated, rows)
	}
	if len(st.Partitions()) != 2+4+8 || st.NumShards() != 8 {
		t.Fatalf("parts=%d shards=%d", len(st.Partitions()), st.NumShards())
	}
	k3, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if gids := k3.Lookup(uint64(i)); len(gids) != 1 {
			t.Fatalf("after full drain Lookup(%d) = %v", i, gids)
		}
	}
}

// TestApplyReshardReplay drives the follower-side replay surface
// directly: begin and cutover apply once, re-delivery is a no-op, and
// gaps are rejected rather than papered over.
func TestApplyReshardReplay(t *testing.T) {
	st := newKV(t, 2)
	if err := st.ApplyReshardBegin(2, 4, 2); err != nil {
		t.Fatal(err)
	}
	if len(st.Partitions()) != 6 || !st.Resharding() || st.NumShards() != 2 {
		t.Fatalf("after begin: parts=%d resharding=%v shards=%d",
			len(st.Partitions()), st.Resharding(), st.NumShards())
	}
	// Re-delivery after a reconnect: same op, same version, no effect.
	if err := st.ApplyReshardBegin(2, 4, 2); err != nil || len(st.Partitions()) != 6 {
		t.Fatalf("re-applied begin: %v, parts=%d", err, len(st.Partitions()))
	}
	// A begin whose base does not match the partition list is a gap.
	if err := st.ApplyReshardBegin(9, 4, 3); !errors.Is(err, table.ErrReplayGap) {
		t.Fatalf("gap begin: %v", err)
	}
	if err := st.ApplyReshardCutover(2, 4, 3); err != nil {
		t.Fatal(err)
	}
	if st.NumShards() != 4 || st.Resharding() || st.MapVersion() != 3 {
		t.Fatalf("after cutover: shards=%d resharding=%v version=%d",
			st.NumShards(), st.Resharding(), st.MapVersion())
	}
	if err := st.ApplyReshardCutover(2, 4, 3); err != nil {
		t.Fatalf("re-applied cutover: %v", err)
	}
	// A cutover with no begin in front of it is a gap.
	if err := st.ApplyReshardCutover(6, 8, 6); !errors.Is(err, table.ErrReplayGap) {
		t.Fatalf("gap cutover: %v", err)
	}
}

// TestReshardUnderChurn is the -race differential: reshard 1 -> 4 -> 8
// while writers update values and relocate keys, merges collect garbage,
// snapshot readers verify every key on every captured epoch, and one old
// pin taken before any reshard must read bit-identically at the end.
func TestReshardUnderChurn(t *testing.T) {
	keys, writers, readers := 400, 4, 4
	if testing.Short() {
		keys, writers, readers = 100, 2, 2
	}

	st := newKV(t, 1)
	olog := oplog.New(st.Clock(), 0)
	if err := st.AttachOplog(olog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if _, err := st.Insert([]any{uint64(i), uint64(0)}); err != nil {
			t.Fatal(err)
		}
	}

	oldPin := st.Snapshot()
	defer oldPin.Release()
	pinKeys, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	pinValid := st.ValidRowsAt(oldPin)

	stop := make(chan struct{})
	var anomalies atomic.Int64
	var wg sync.WaitGroup

	// Writers: each owns keys w, w+writers, ... and alternates value
	// updates with key relocations key -> key+keys -> key (the relocated
	// spelling hashes differently, forcing cross-shard moves).  A write
	// losing its row to the migration retries through a fresh lookup.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				base := uint64(w + (round%(keys/writers))*writers)
				cur, alt := base, base+uint64(keys)
				if round%2 == 1 {
					cur, alt = alt, cur
				}
				h, err := ColumnOf[uint64](st, "k")
				if err != nil {
					t.Error(err)
					return
				}
				gids := h.Lookup(cur)
				if len(gids) != 1 {
					// The key may be mid-flight under its other spelling.
					if g2 := h.Lookup(alt); len(gids)+len(g2) != 1 {
						continue // racing another round on this key
					}
					continue
				}
				changes := map[string]any{"v": uint64(rng.Intn(1000))}
				if rng.Intn(2) == 0 {
					changes["k"] = alt
				}
				if _, err := st.Update(gids[0], changes); err != nil &&
					!errors.Is(err, table.ErrRowInvalid) {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}

	// Readers: capture a snapshot, resolve a fresh handle (a handle
	// resolved after the capture covers every partition a visible version
	// can live in), and require each key to resolve exactly once in
	// exactly one of its two spellings.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				h, err := ColumnOf[uint64](st, "k")
				if err != nil {
					t.Error(err)
					snap.Release()
					return
				}
				for probe := 0; probe < 16; probe++ {
					key := uint64(rng.Intn(keys))
					n := len(h.LookupAt(snap, key)) + len(h.LookupAt(snap, key+uint64(keys)))
					if n != 1 {
						anomalies.Add(1)
						t.Errorf("snapshot read: key %d resolved %d times", key, n)
					}
				}
				snap.Release()
			}
		}(r)
	}

	// Garbage-collecting merges, underneath everything.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
				t.Errorf("merge: %v", err)
				return
			}
		}
	}()

	for _, n := range []int{4, 8} {
		if _, err := st.Reshard(context.Background(), n); err != nil {
			t.Fatalf("Reshard(%d) under churn: %v", n, err)
		}
	}
	close(stop)
	wg.Wait()

	if n := anomalies.Load(); n != 0 {
		t.Fatalf("%d read anomalies during resharding", n)
	}
	if base, n := st.ActiveWindow(); base != 1+4 || n != 8 {
		t.Fatalf("final active window [%d, %d), want [5, 13)", base, base+n)
	}
	// The churn conserves rows: every key is live under exactly one
	// spelling.
	h, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		n := len(h.Lookup(uint64(i))) + len(h.Lookup(uint64(i+keys)))
		if n != 1 {
			t.Fatalf("key %d resolved %d times after churn", i, n)
		}
	}
	// The old pin predates both reshards and every update; its reads must
	// be untouched by migration and GC.
	if got := st.ValidRowsAt(oldPin); got != pinValid {
		t.Fatalf("old pin ValidRowsAt = %d want %d", got, pinValid)
	}
	for i := 0; i < keys; i++ {
		if got := pinKeys.LookupAt(oldPin, uint64(i)); len(got) != 1 {
			t.Fatalf("old pin Lookup(%d) = %v", i, got)
		}
	}
}
