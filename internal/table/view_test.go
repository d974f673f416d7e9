package table

import (
	"context"
	"fmt"
	"testing"

	"hyrise/internal/epoch"
)

func kvTable(t *testing.T) *Table {
	t.Helper()
	tb, err := New("kv", Schema{
		{Name: "k", Type: Uint64},
		{Name: "v", Type: Uint64},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestViewFreezesUpdatesAndDeletes pins the core visibility rules: a view
// keeps seeing the version that was current at capture, updates switch
// versions atomically per epoch, and rows born and killed between two
// captures are visible to neither.
func TestViewFreezesUpdatesAndDeletes(t *testing.T) {
	tb := kvTable(t)
	h, err := colOf[uint64](tb, "k")
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := tb.Insert([]any{uint64(1), uint64(10)})
	v1 := tb.Snapshot()

	r1, err := tb.Update(r0, map[string]any{"k": uint64(2)})
	if err != nil {
		t.Fatal(err)
	}
	v2 := tb.Snapshot()
	if err := tb.Delete(r1); err != nil {
		t.Fatal(err)
	}
	// Born and killed inside one epoch: no snapshot ever sees it.
	ghost, _ := tb.Insert([]any{uint64(9), uint64(90)})
	if err := tb.Delete(ghost); err != nil {
		t.Fatal(err)
	}
	v3 := tb.Snapshot()

	cases := []struct {
		name  string
		view  View
		want1 int // rows with k=1
		want2 int // rows with k=2
	}{
		{"v1 pre-update", v1, 1, 0},
		{"v2 post-update", v2, 0, 1},
		{"v3 post-delete", v3, 0, 0},
		{"latest", Latest(), 0, 0},
	}
	for _, c := range cases {
		if n := len(h.LookupAt(c.view, 1)); n != c.want1 {
			t.Errorf("%s: lookup(1)=%d want %d", c.name, n, c.want1)
		}
		if n := len(h.LookupAt(c.view, 2)); n != c.want2 {
			t.Errorf("%s: lookup(2)=%d want %d", c.name, n, c.want2)
		}
		if n := len(h.LookupAt(c.view, 9)); n != 0 {
			t.Errorf("%s: ghost row visible", c.name)
		}
	}
	if !visibleAt(tb, v1, r0) || visibleAt(tb, v2, r0) {
		t.Error("old version visibility wrong across update")
	}
	if visibleAt(tb, v1, r1) || !visibleAt(tb, v2, r1) {
		t.Error("new version visibility wrong across update")
	}
	if got := tb.ValidRowsAt(v1); got != 1 {
		t.Errorf("ValidRowsAt(v1)=%d want 1", got)
	}
	if got := tb.ValidRowsAt(v3); got != 0 {
		t.Errorf("ValidRowsAt(v3)=%d want 0", got)
	}
}

// TestViewSurvivesMerge checks that a view taken before a merge reads
// identically after the merge committed (merges move rows between
// partitions but never renumber them or change visibility).
func TestViewSurvivesMerge(t *testing.T) {
	tb := kvTable(t)
	h, err := colOf[uint64](tb, "k")
	if err != nil {
		t.Fatal(err)
	}
	nh, err := colOf[uint64](tb, "v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tb.Insert([]any{uint64(i % 10), uint64(i)})
	}
	view := tb.Snapshot()
	wantRows := h.LookupAt(view, 3)
	wantSum := nh.SumAt(view)

	// Churn after the capture: more inserts, deletes of snapshot-visible
	// rows, then a merge folding everything into the main partitions.
	for i := 0; i < 100; i++ {
		tb.Insert([]any{uint64(3), uint64(1000 + i)})
	}
	for _, r := range wantRows[:5] {
		if err := tb.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}

	if got := fmt.Sprint(h.LookupAt(view, 3)); got != fmt.Sprint(wantRows) {
		t.Errorf("lookup under view changed across merge: %s want %s", got, fmt.Sprint(wantRows))
	}
	if got := nh.SumAt(view); got != wantSum {
		t.Errorf("sum under view changed across merge: %d want %d", got, wantSum)
	}
	// RangeAt and ScanAt agree with the frozen row set too.
	if got := len(h.RangeAt(view, 0, 9)); got != 200 {
		t.Errorf("range under view sees %d rows want 200", got)
	}
	n := 0
	h.ScanAt(view, func(int, uint64) bool { n++; return true })
	if n != 200 {
		t.Errorf("scan under view sees %d rows want 200", n)
	}
}

// TestMoveRowAtomicVisibility checks the cross-table move primitive: for
// any epoch exactly one of the two versions is visible, and a concurrent
// claim loses cleanly.
func TestMoveRowAtomicVisibility(t *testing.T) {
	clock := epoch.NewClock()
	a, err := NewWithClock("a", Schema{{Name: "k", Type: Uint64}}, clock)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWithClock("b", Schema{{Name: "k", Type: Uint64}}, clock)
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := a.Insert([]any{uint64(1)})
	before := a.Snapshot()
	r1, err := MoveRow(a, r0, b, []any{uint64(2)})
	if err != nil {
		t.Fatal(err)
	}
	after := a.Snapshot()

	if !visibleAt(a, before, r0) || visibleAt(b, before, r1) {
		t.Error("pre-move view must see only the source version")
	}
	if visibleAt(a, after, r0) || !visibleAt(b, after, r1) {
		t.Error("post-move view must see only the destination version")
	}
	// Every epoch between the two captures sees exactly one version.
	for e := before.Epoch(); e <= after.Epoch(); e++ {
		v := ViewAt(e)
		na, nb := 0, 0
		if visibleAt(a, v, r0) {
			na++
		}
		if visibleAt(b, v, r1) {
			nb++
		}
		if na+nb != 1 {
			t.Errorf("epoch %d sees %d versions, want exactly 1", e, na+nb)
		}
	}
	// The old version is claimed: a second move (or update) fails.
	if _, err := MoveRow(a, r0, b, []any{uint64(3)}); err == nil {
		t.Error("second move of a claimed row succeeded")
	}
	// Mismatched clocks are rejected.
	c, _ := New("c", Schema{{Name: "k", Type: Uint64}})
	rc, _ := c.Insert([]any{uint64(1)})
	if _, err := MoveRow(c, rc, b, []any{uint64(4)}); err == nil {
		t.Error("move across different clocks succeeded")
	}
}

// TestViewSurvivesMergeAbort checks that an aborted merge (second delta
// folded back into the frozen delta, row ids preserved) leaves in-flight
// views intact — including views that already see rows in the second
// delta.
func TestViewSurvivesMergeAbort(t *testing.T) {
	tb := kvTable(t)
	nh, err := colOf[uint64](tb, "v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tb.Insert([]any{uint64(i), uint64(i)})
	}
	preMerge := tb.Snapshot()
	want := nh.SumAt(preMerge)

	// Freeze the delta and open second deltas exactly as Merge's phase 1
	// does, land rows in the second delta, capture a view seeing them,
	// then abort: both views must read on unchanged.
	tb.mu.Lock()
	for _, c := range tb.cols {
		c.beginMerge()
	}
	tb.mu.Unlock()
	tb.Insert([]any{uint64(100), uint64(1000)})
	midMerge := tb.Snapshot()
	wantMid := nh.SumAt(midMerge)
	if wantMid != want+1000 {
		t.Fatalf("mid-merge view sum %d want %d", wantMid, want+1000)
	}
	tb.mu.Lock()
	for _, c := range tb.cols {
		c.abortMerge()
	}
	tb.mu.Unlock()

	if got := nh.SumAt(preMerge); got != want {
		t.Errorf("pre-merge view sum changed across abort: %d want %d", got, want)
	}
	if got := nh.SumAt(midMerge); got != wantMid {
		t.Errorf("mid-merge view sum changed across abort: %d want %d", got, wantMid)
	}
	// The real Merge path with a cancelled context also leaves views alone.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tb.Merge(ctx, MergeOptions{}); err == nil {
		t.Fatal("cancelled merge reported success")
	}
	if got := nh.SumAt(preMerge); got != want {
		t.Errorf("sum under view changed across cancelled merge: %d want %d", got, want)
	}
}
