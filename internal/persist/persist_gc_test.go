package persist

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"hyrise/internal/table"
)

// TestGCRoundTrip saves a table whose ids have gaps (GC retired some) and
// checks the format restores the id map, the retired set and the GC
// counters: retired ids keep failing with ErrRowInvalid after the reload
// and new inserts continue above the saved NextRowID.
func TestGCRoundTrip(t *testing.T) {
	tb := buildTable(t, 100)
	retired := make([]int, 0, 20)
	for i := 0; i < 20; i++ {
		if _, err := tb.Update(i, map[string]any{"qty": uint32(500 + i)}); err != nil {
			t.Fatal(err)
		}
		retired = append(retired, i)
	}
	if err := tb.Delete(30); err != nil {
		t.Fatal(err)
	}
	retired = append(retired, 30)
	if _, err := tb.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := tb.Shard(0).RetiredRows(); n != len(retired) {
		t.Fatalf("retired %d want %d", n, len(retired))
	}
	// More churn after the merge so the snapshot holds both a reclaimed
	// main and a dirty delta.
	if _, err := tb.Update(40, map[string]any{"qty": uint32(999)}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, tb, got, equalTables)
	if a, b := got.Shard(0), tb.Shard(0); a.ReclaimedBytes() != b.ReclaimedBytes() || a.GCWatermark() != b.GCWatermark() {
		t.Fatalf("GC counters: %d/%d vs %d/%d",
			a.ReclaimedBytes(), a.GCWatermark(), b.ReclaimedBytes(), b.GCWatermark())
	}
	for _, id := range retired {
		if _, err := got.Row(id); !errors.Is(err, table.ErrRowInvalid) {
			t.Fatalf("retired id %d after reload: %v want ErrRowInvalid", id, err)
		}
	}
	// Fresh inserts continue above the persisted NextRowID — never reusing
	// a retired id.
	nid, err := got.Insert([]any{uint64(7), uint32(7), "z"})
	if err != nil {
		t.Fatal(err)
	}
	if want := tb.Shard(0).NextRowID(); nid != want {
		t.Fatalf("fresh id %d want %d", nid, want)
	}
}
