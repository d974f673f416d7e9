package server_test

import (
	"context"
	"errors"
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
// without bound.
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
	// Released tokens are gone for good.
	if _, err := c.ValidRowsAt(s3); !errors.Is(err, client.ErrBadSnapshot) {
		t.Fatalf("read on released token: %v want ErrBadSnapshot", err)
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
	// The stale token is gone from the registry.
	if _, err := c.ValidRowsAt(snap); !errors.Is(err, client.ErrBadSnapshot) {
		t.Fatalf("read on dropped token: %v want ErrBadSnapshot", err)
	}
}
