package table

import (
	"context"
	"testing"
)

// TestPreciseRetentionWithOldPin is the precise-GC acceptance test: one
// pin taken before heavy churn must retain ONLY the versions visible at
// its own epoch, while everything invalidated after it — invisible to the
// pin yet above the classic min-pin watermark — is reclaimed.  The coarse
// watermark rule would have kept every one of those versions; precise
// retention must reclaim at least 90% of them and keep physical storage
// bounded.
// coarseReclaimable counts the stored dead versions the min-pin watermark
// rule would reclaim: those invalidated at or below the oldest pinned
// epoch.  Merges no longer evaluate that rule; the retention tests do, as
// the yardstick precise retention is measured against.
func coarseReclaimable(tb *Table, oldestPin uint64) int {
	_, end := tb.RowEpochs()
	n := 0
	for _, e := range end {
		if e != 0 && e <= oldestPin {
			n++
		}
	}
	return n
}

func TestPreciseRetentionWithOldPin(t *testing.T) {
	tb, h := gcTestTable(t)
	const n, cycles = 100, 50
	ids := make([]int, n)
	for i := range ids {
		id, err := tb.Insert([]any{uint64(i), uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	// The old pin: visible versions are exactly the n originals.
	pin := PinnedView(tb.Clock())
	defer pin.Release()
	pinSum := h.SumAt(pin)

	for cycle := 1; cycle <= cycles; cycle++ {
		for i := range ids {
			nid, err := tb.Update(ids[i], map[string]any{"v": uint64(cycle*n + i)})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = nid
		}
	}

	// The coarse watermark (min pinned epoch) reclaims nothing here: every
	// dead version was invalidated above the pin.
	coarse := coarseReclaimable(tb, pin.Epoch())
	if coarse != 0 {
		t.Fatalf("coarse rule reclaims %d want 0", coarse)
	}
	rep, err := tb.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every cycle invalidated n versions, all after the pin's epoch.
	if rep.DeadAtFreeze != n*cycles {
		t.Fatalf("DeadAtFreeze = %d want %d", rep.DeadAtFreeze, n*cycles)
	}
	if rep.LivePins != 1 {
		t.Fatalf("LivePins = %d want 1", rep.LivePins)
	}
	// Precise retention keeps only the n versions the pin can see.
	retained := rep.DeadAtFreeze - rep.RowsReclaimed
	if retained != n {
		t.Fatalf("retained %d versions for the pin, want %d", retained, n)
	}
	coarseRetained := rep.DeadAtFreeze - coarse
	if ratio := float64(rep.RowsReclaimed-coarse) / float64(coarseRetained); ratio < 0.9 {
		t.Fatalf("precise retention reclaimed %.1f%% of what the watermark would retain, want >= 90%%",
			100*ratio)
	}
	// Physical storage is bounded by live rows + pinned history, not by
	// the number of updates ever applied.
	if tb.Rows() != 2*n {
		t.Fatalf("physical rows = %d want %d (live) + %d (pinned history)", tb.Rows(), n, n)
	}

	// The pin still reads its exact epoch after reclamation.
	if got := h.SumAt(pin); got != pinSum {
		t.Fatalf("pinned SumAt = %d want %d", got, pinSum)
	}
	if got := tb.ValidRowsAt(pin); got != n {
		t.Fatalf("pinned ValidRowsAt = %d want %d", got, n)
	}

	// Releasing the pin frees its history on the next merge cycle.
	pin.Release()
	for i := range ids {
		nid, err := tb.Update(ids[i], map[string]any{"v": uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = nid
	}
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != n || tb.Rows()-tb.ValidRows() != 0 {
		t.Fatalf("after release: %d physical rows, %d dead", tb.Rows(), tb.Rows()-tb.ValidRows())
	}
}
