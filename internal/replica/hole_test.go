package replica

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"hyrise/internal/oplog"
	"hyrise/internal/persist"
	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// TestReplayIntoHoles: a follower bootstrapped after the primary's drained
// windows left the store replays an op-log tail that still names them —
// inserts, a delete, migration moves out of and into them, and a
// key-changing move out of one.  Every such op applies without error by
// skipping its half in a hole, and the follower then answers as the
// primary does.
func TestReplayIntoHoles(t *testing.T) {
	ctx := context.Background()
	st, err := shard.New("t", table.Schema{{Name: "k", Type: table.Uint64}, {Name: "v", Type: table.Uint64}}, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	log := oplog.New(st.Clock(), 0)
	if err := st.AttachOplog(log); err != nil {
		t.Fatal(err)
	}
	const n = 20
	gids := make([]int, n)
	for i := range gids {
		if gids[i], err = st.Insert([]any{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete(gids[0]); err != nil { // a delete in partition 0
		t.Fatal(err)
	}
	drain := func(n int) {
		t.Helper()
		if _, err := st.Reshard(ctx, n); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := st.RequestMerge(ctx, table.MergeOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain(2) // moves 0 -> [1, 3); partition 0 leaves
	h, err := shard.ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Update(h.Lookup(1)[0], map[string]any{"k": uint64(100)}); err != nil { // a key move inside [1, 3)
		t.Fatal(err)
	}
	drain(3) // moves [1, 3) -> [3, 6); partitions 1 and 2 leave
	if _, top := st.PersistTopology(); len(top.Windows) != 1 || top.Windows[0].Base != 3 {
		t.Fatalf("primary windows %v, want [3, 6) alone", top.Windows)
	}

	var img bytes.Buffer
	if err := persist.Save(st, &img); err != nil {
		t.Fatal(err)
	}
	follower, err := persist.Load(&img)
	if err != nil {
		t.Fatal(err)
	}
	ops, ok := log.ReadFrom(0, log.Len())
	if !ok || len(ops) == 0 {
		t.Fatal("op log lost its head")
	}
	holes := 0
	r := &Replica{store: follower}
	for _, op := range ops {
		if op.Shard < 3 && op.Kind != oplog.KindReshardBegin && op.Kind != oplog.KindReshardCutover {
			holes++
		}
		if err := r.apply(op); err != nil {
			t.Fatalf("op %d (%v, partition %d): %v", op.LSN, op.Kind, op.Shard, err)
		}
	}
	if holes < n {
		t.Fatalf("only %d ops named a hole", holes)
	}

	_, want := st.PersistTopology()
	if _, got := follower.PersistTopology(); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower topology %+v, primary %+v", got, want)
	}
	fh, err := shard.ColumnOf[uint64](follower, "k")
	if err != nil {
		t.Fatal(err)
	}
	for k := range uint64(101) {
		wantIDs, gotIDs := h.Lookup(k), fh.Lookup(k)
		if !reflect.DeepEqual(wantIDs, gotIDs) {
			t.Fatalf("Lookup(%d): follower %v, primary %v", k, gotIDs, wantIDs)
		}
		for _, id := range wantIDs {
			w, _ := st.Row(id)
			g, err := follower.Row(id)
			if err != nil || !reflect.DeepEqual(g, w) {
				t.Fatalf("Row(%d): follower %v (%v), primary %v", id, g, err, w)
			}
		}
	}
	if st.ValidRows() != n-1 || follower.ValidRows() != n-1 {
		t.Fatalf("valid rows: primary %d, follower %d, want %d", st.ValidRows(), follower.ValidRows(), n-1)
	}
}
