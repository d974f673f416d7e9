package hyrise_test

import (
	"bytes"
	"context"
	"testing"

	"hyrise"
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

	// Workload driver on the public surface, one subtest per Figure 1 mix.
	for _, mix := range []hyrise.Mix{hyrise.OLTPMix, hyrise.OLAPMix, hyrise.TPCCMix} {
		t.Run(mix.Name, func(t *testing.T) {
			drv, err := hyrise.NewDriver(tb, "order_id", mix,
				hyrise.NewUniformGenerator(1000, 7), 7)
			if err != nil {
				t.Fatal(err)
			}
			counts, err := drv.Run(500)
			if err != nil {
				t.Fatal(err)
			}
			if counts.Total() != 500 {
				t.Fatalf("driver total %d", counts.Total())
			}
		})
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

	// Model prediction.
	pred := hyrise.Predict(hyrise.ModelWorkload{
		NM: 100_000_000, ND: 1_000_000, Ej: 8,
		UM: 1_000_000, UD: 10_000, UPrime: 1_005_000, NC: 300,
	}, hyrise.PaperArch(), true)
	if pred.TotalCycles() <= 0 {
		t.Fatal("model prediction")
	}
}

func TestGeneratorsPublic(t *testing.T) {
	g := hyrise.NewGeneratorForUniqueFraction(10_000, 0.1, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 10_000; i++ {
		seen[g.Next()] = true
	}
	if len(seen) < 500 || len(seen) > 2000 {
		t.Fatalf("distinct=%d want ~1000", len(seen))
	}
	u := hyrise.NewUniqueGenerator(2)
	a, b := u.Next(), u.Next()
	if a == b {
		t.Fatal("unique generator repeated")
	}
	z := hyrise.NewZipfGenerator(100, 1.5, 3)
	if z.Next() >= 100 {
		t.Fatal("zipf domain")
	}
}
