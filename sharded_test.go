package hyrise_test

import (
	"context"
	"testing"
	"time"

	"hyrise"
)

// TestShardedPublicSurface exercises the sharded table end to end through
// the re-exported API: creation, routed inserts, fan-out reads, the
// cross-shard query runner, the parallel merge and the scheduler.
func TestShardedPublicSurface(t *testing.T) {
	st, err := hyrise.NewShardedTable("sales", hyrise.Schema{
		{Name: "order_id", Type: hyrise.Uint64},
		{Name: "qty", Type: hyrise.Uint32},
		{Name: "product", Type: hyrise.String},
	}, "order_id", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		p := "widget"
		if i%4 == 0 {
			p = "gadget"
		}
		if _, err := st.Insert([]any{uint64(i), uint32(i % 7), p}); err != nil {
			t.Fatal(err)
		}
	}

	h, err := hyrise.ColumnOf[uint64](st, "order_id")
	if err != nil {
		t.Fatal(err)
	}
	if rows := h.Lookup(42); len(rows) != 1 {
		t.Fatalf("Lookup(42) = %v", rows)
	}
	if rows := h.Range(100, 149); len(rows) != 50 {
		t.Fatalf("Range = %d rows", len(rows))
	}

	nh, err := hyrise.NumericColumnOf[uint32](st, "qty")
	if err != nil {
		t.Fatal(err)
	}
	sumBefore := nh.Sum()

	res, err := hyrise.Query(st, []hyrise.Filter{
		{Column: "product", Op: hyrise.FilterEq, Value: "gadget"},
		{Column: "order_id", Op: hyrise.FilterBetween, Value: 0, Hi: 99},
	}, []string{"order_id"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 25 {
		t.Fatalf("query matched %d rows want 25", res.Count())
	}

	rep, err := st.RequestMerge(context.Background(), hyrise.MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsMerged != 400 {
		t.Fatalf("RowsMerged = %d", rep.RowsMerged)
	}
	if nh.Sum() != sumBefore {
		t.Fatal("merge changed the aggregate")
	}
	if rows := h.Lookup(42); len(rows) != 1 {
		t.Fatal("post-merge lookup missed")
	}

	// The scheduler merges hot shards on its own.
	ms := hyrise.NewScheduler(st, hyrise.SchedulerConfig{
		Fraction: 0.01,
		Interval: time.Millisecond,
	})
	if err := ms.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 1000; i < 2000; i++ {
		if _, err := st.Insert([]any{uint64(i), uint32(1), "widget"}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for st.DeltaRows() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ms.Stop()
	if err := ms.LastErr(); err != nil {
		t.Fatal(err)
	}
	if ms.Merges() == 0 {
		t.Fatal("scheduler never merged")
	}
	if rows := h.Lookup(1500); len(rows) != 1 {
		t.Fatal("row inserted during supervision lost")
	}
}

// TestSchedulerFollowsReshard: a scheduler started on a one-shard store
// keeps every partition's delta under the bound after the store reshards
// beneath it — the partitions the reshard created are merged like the
// original one, and MergeNow reaches all of them.
func TestSchedulerFollowsReshard(t *testing.T) {
	const fraction = 0.05
	st, err := hyrise.NewTable("t", hyrise.Schema{
		{Name: "k", Type: hyrise.Uint64},
		{Name: "v", Type: hyrise.Uint32},
	})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := st.Insert([]any{uint64(i), uint32(i % 7)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	bounded := func(what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			worst, at := 0.0, 0
			for i, p := range st.Partitions() {
				if f := p.DeltaFraction(); f > worst {
					worst, at = f, i
				}
			}
			if worst <= fraction {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: partition %d of %d still at delta fraction %.2f (main %d, delta %d)",
					what, at, len(st.Partitions()), worst, st.MainRows(), st.DeltaRows())
			}
			time.Sleep(time.Millisecond)
		}
	}

	ms := hyrise.NewScheduler(st, hyrise.SchedulerConfig{Fraction: fraction, Interval: time.Millisecond})
	if err := ms.Start(); err != nil {
		t.Fatal(err)
	}
	defer ms.Stop()
	insert(0, 5000)
	bounded("before the reshard")

	if _, err := st.Reshard(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if got := len(st.Partitions()); got != 4 {
		t.Fatalf("%d partitions after Reshard(3) want 4 (one retired, three active)", got)
	}
	insert(5000, 10000)
	bounded("after the reshard")

	ms.Stop()
	if err := ms.LastErr(); err != nil {
		t.Fatal(err)
	}
	// A trickle below the trigger stays in the deltas until MergeNow
	// drains every live partition, the retired one's dead main included.
	insert(10000, 10030)
	if err := ms.MergeNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, p := range st.Partitions() {
		if p.DeltaRows() != 0 || p.Rows() != p.ValidRows() {
			t.Fatalf("partition %d after MergeNow: delta=%d rows=%d valid=%d",
				i, p.DeltaRows(), p.Rows(), p.ValidRows())
		}
	}
	if st.ValidRows() != 10030 {
		t.Fatalf("ValidRows = %d want 10030", st.ValidRows())
	}
}
