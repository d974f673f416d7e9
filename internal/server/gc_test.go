package server_test

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"

	"hyrise/client"
	"hyrise/internal/server"
	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// startServerOpts is startServer with explicit server options.
func startServerOpts(t *testing.T, st *shard.Table, opts server.Options) (*client.Client, *server.Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, opts)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv
}

// TestSnapshotRegistryBounded: the registry refuses captures past
// MaxSnapshots with the typed error, and frees a slot on release — a
// client capturing in a loop can no longer grow server state (or pin GC)
// without bound.  A read at a released epoch answers until GC passes it,
// and one at an epoch the server has not reached is refused.
func TestSnapshotRegistryBounded(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, srv := startServerOpts(t, flat, server.Options{MaxSnapshots: 2})

	s1, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(); !errors.Is(err, client.ErrTooManySnapshots) {
		t.Fatalf("third capture: %v want ErrTooManySnapshots", err)
	}
	if srv.SnapshotCount() != 2 {
		t.Fatalf("registry holds %d, want 2", srv.SnapshotCount())
	}
	if err := c.Release(s1); err != nil {
		t.Fatal(err)
	}
	s3, err := c.Snapshot()
	if err != nil {
		t.Fatalf("capture after release: %v", err)
	}
	if err := c.Release(s3); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(s3); !errors.Is(err, client.ErrBadSnapshot) {
		t.Fatalf("release of an unpinned epoch: %v want ErrBadSnapshot", err)
	}
	// A released epoch reads exactly until a reclaiming merge passes it.
	if n, err := c.ValidRowsAt(s3); err != nil || n != 0 {
		t.Fatalf("read at a released epoch: %d, %v", n, err)
	}
	id, err := c.Insert([]any{uint64(1), uint32(1), "p"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(id, map[string]any{"qty": uint32(2)}); err != nil {
		t.Fatal(err)
	}
	if rep, err := flat.RequestMerge(context.Background(), table.MergeOptions{}); err != nil || rep.RowsReclaimed != 1 {
		t.Fatalf("merge reclaimed %d, %v", rep.RowsReclaimed, err)
	}
	if _, err := c.ValidRowsAt(s3); !errors.Is(err, client.ErrBadSnapshot) {
		t.Fatalf("read at a released epoch GC passed: %v want ErrBadSnapshot", err)
	}
	// The open epoch and those the server has not reached, the Latest
	// sentinel among them, are refused.
	now := flat.Clock().Now()
	for _, e := range []client.Snap{client.Snap(now), client.Snap(now + 1), client.Snap(math.MaxUint64)} {
		if _, err := c.ValidRowsAt(e); !errors.Is(err, client.ErrBadSnapshot) {
			t.Fatalf("read at unclosed epoch %d: %v want ErrBadSnapshot", e, err)
		}
	}
}

// TestReleasedEpochAfterReshardFails: a reshard moves every row at one
// stamp.  Once a released snapshot's old window has been drained and has
// left the store, a read at that epoch is refused rather than answered
// from the new window, where every moved row begins after it.
func TestReleasedEpochAfterReshardFails(t *testing.T) {
	st, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := startServerOpts(t, st, server.Options{})
	const n = 20
	for i := range uint64(n) {
		if _, err := c.Insert([]any{i, uint32(1), "p"}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Reshard(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if got, err := c.ValidRowsAt(s); err != nil || got != n {
		t.Fatalf("pinned read across the reshard: %d, %v, want %d", got, err, n)
	}
	if err := c.Release(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; len(st.Partitions()) != st.NumShards(); i++ {
		if i == 4 {
			t.Fatalf("%d merges left %d partitions for %d shards", i, len(st.Partitions()), st.NumShards())
		}
		if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := c.ValidRowsAt(s); !errors.Is(err, client.ErrBadSnapshot) {
		t.Fatalf("read at a released epoch after its window drained: %d, %v, want ErrBadSnapshot", got, err)
	}
}

// TestSnapshotTokenPinsGC: a registered token pins the GC watermark — the
// merge keeps every version the snapshot can see — and releasing the token
// (or dropping the whole registry) lets the next merge reclaim them.
func TestSnapshotTokenPinsGC(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, srv := startServerOpts(t, flat, server.Options{})

	const n = 40
	ids := make([]int, n)
	for i := range ids {
		if ids[i], err = c.Insert([]any{uint64(i), uint32(i), "p"}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if ids[i], err = c.Update(ids[i], map[string]any{"qty": uint32(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := flat.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	// The token's pin held: all n superseded versions survive, and the
	// pinned read still sees its full original set.
	if flat.Rows() != 2*n {
		t.Fatalf("rows=%d want %d (pin ignored)", flat.Rows(), 2*n)
	}
	if got, err := c.ValidRowsAt(snap); err != nil || got != n {
		t.Fatalf("pinned read sees %d (%v), want %d", got, err, n)
	}

	// ReleaseAllSnapshots (the shutdown path) drops the pin; the next
	// merge reclaims all superseded versions.
	if got := srv.ReleaseAllSnapshots(); got != 1 {
		t.Fatalf("released %d, want 1", got)
	}
	if _, err := flat.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if flat.Rows() != n || flat.StoreStats().RetiredRows != n {
		t.Fatalf("rows=%d retired=%d want %d/%d", flat.Rows(), flat.StoreStats().RetiredRows, n, n)
	}
	// The merge passed the released epoch, so reads at it fail.
	if _, err := c.ValidRowsAt(snap); !errors.Is(err, client.ErrBadSnapshot) {
		t.Fatalf("read at a released epoch GC passed: %v want ErrBadSnapshot", err)
	}
}
