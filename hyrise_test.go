package hyrise_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"hyrise"
	"hyrise/internal/workload"
)

// TestPublicAPIEndToEnd walks the full public surface the way the README
// quick start does: create, write, query, merge, schedule, persist.
func TestPublicAPIEndToEnd(t *testing.T) {
	tb, err := hyrise.NewTable("sales", hyrise.Schema{
		{Name: "order_id", Type: hyrise.Uint64},
		{Name: "qty", Type: hyrise.Uint32},
		{Name: "product", Type: hyrise.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := tb.Insert([]any{uint64(i), uint32(i % 10), "widget"}); err != nil {
			t.Fatal(err)
		}
	}
	r0, err := tb.Update(0, map[string]any{"qty": uint32(99)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Delete(1); err != nil {
		t.Fatal(err)
	}

	rep, err := tb.RequestMerge(context.Background(), hyrise.MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsMerged != 1001 {
		t.Fatalf("RowsMerged=%d", rep.RowsMerged)
	}

	h, err := hyrise.ColumnOf[uint64](tb, "order_id")
	if err != nil {
		t.Fatal(err)
	}
	if rows := h.Lookup(0); len(rows) != 1 || rows[0] != r0 {
		t.Fatalf("Lookup(0)=%v want [%d] (updated version only)", rows, r0)
	}
	if rows := h.Lookup(1); len(rows) != 0 {
		t.Fatalf("Lookup(1)=%v want deleted", rows)
	}
	if rows := h.Range(10, 19); len(rows) != 10 {
		t.Fatalf("Range=%d rows", len(rows))
	}

	nh, err := hyrise.NumericColumnOf[uint32](tb, "qty")
	if err != nil {
		t.Fatal(err)
	}
	if mx, ok := nh.Max(); !ok || mx != 99 {
		t.Fatalf("Max=%d,%v", mx, ok)
	}

	// The store under each Figure 1 query mix, one subtest per mix.
	for _, mix := range workload.Mixes() {
		t.Run(mix.Name, func(t *testing.T) { checkMix(t, mix, 500) })
	}

	// Persistence round trip.
	var buf bytes.Buffer
	if err := hyrise.Save(tb, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := hyrise.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rows() != tb.Rows() || loaded.ValidRows() != tb.ValidRows() {
		t.Fatal("persistence round trip mismatch")
	}

	// Scheduler on the public surface.
	s := hyrise.NewScheduler(tb, hyrise.SchedulerConfig{Fraction: 0.5})
	if s.ShouldMerge() && tb.DeltaRows() == 0 {
		t.Fatal("scheduler trigger on empty delta")
	}
}

// checkMix applies ops operations drawn from mix to a fresh two-shard
// table through the public API and checks every read, and the row
// accounting of the insert-only updates, against an in-memory oracle of
// the live rows, before and after a merge.
func checkMix(t *testing.T, mix workload.Mix, ops int) {
	t.Helper()
	tb, err := hyrise.NewShardedTable("sales", hyrise.Schema{
		{Name: "order_id", Type: hyrise.Uint64},
		{Name: "qty", Type: hyrise.Uint32},
	}, "order_id", 2)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		key uint64
		qty uint32
	}
	live := map[int]row{}
	insert := func(key uint64, qty uint32) {
		id, err := tb.Insert([]any{key, qty})
		if err != nil {
			t.Fatal(err)
		}
		live[id] = row{key, qty}
	}
	const domain = 1000
	for i := uint64(0); i < domain; i++ {
		insert(i, uint32(i%10))
	}
	keys, err := hyrise.ColumnOf[uint64](tb, "order_id")
	if err != nil {
		t.Fatal(err)
	}
	qty, err := hyrise.NumericColumnOf[uint32](tb, "qty")
	if err != nil {
		t.Fatal(err)
	}
	check := func(op string, got, want int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: got %d want %d", op, got, want)
		}
	}
	count := func(lo, hi uint64) (n int) {
		for _, r := range live {
			if r.key >= lo && r.key <= hi {
				n++
			}
		}
		return n
	}
	sum := func() (s uint64) {
		for _, r := range live {
			s += uint64(r.qty)
		}
		return s
	}

	rng := rand.New(rand.NewSource(7))
	gen := workload.NewUniform(domain, 7)
	inserts, updates := 0, 0
	for i := 0; i < ops; i++ {
		key := gen.Next()
		switch mix.Sample(rng) {
		case workload.Lookup:
			check("lookup", len(keys.Lookup(key)), count(key, key))
		case workload.TableScan:
			if got, want := qty.Sum(), sum(); got != want {
				t.Fatalf("scan: sum %d want %d", got, want)
			}
		case workload.RangeSelect:
			check("range", len(keys.Range(key, key+9)), count(key, key+9))
		case workload.Insert:
			insert(key, uint32(rng.Intn(100)))
			inserts++
		case workload.Modification:
			for _, id := range keys.Lookup(key) {
				q := uint32(rng.Intn(100))
				nid, err := tb.Update(id, map[string]any{"qty": q})
				if err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				live[nid] = row{key, q}
				updates++
			}
		case workload.Delete:
			for _, id := range keys.Lookup(key) {
				if err := tb.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
			}
		}
	}
	// Every update appended a version, and every update and delete
	// invalidated one.
	check("rows", tb.Rows(), domain+inserts+updates)
	check("valid rows", tb.ValidRows(), len(live))

	if _, err := tb.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	check("valid rows after merge", tb.ValidRows(), len(live))
	check("range after merge", len(keys.Range(0, domain-1)), len(live))
	if got, want := qty.Sum(), sum(); got != want {
		t.Fatalf("sum after merge %d want %d", got, want)
	}
}
