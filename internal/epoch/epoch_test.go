package epoch

import (
	"sync"
	"testing"
)

func TestClockCapture(t *testing.T) {
	c := NewClock()
	if c.Now() != 1 {
		t.Fatalf("fresh clock at %d, want 1", c.Now())
	}
	if e := c.Capture(); e != 1 {
		t.Fatalf("first capture %d, want 1", e)
	}
	if c.Now() != 2 {
		t.Fatalf("post-capture clock %d, want 2", c.Now())
	}
	if e := c.Capture(); e != 2 {
		t.Fatalf("second capture %d, want 2", e)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(10)
	if c.Now() != 10 {
		t.Fatalf("clock %d, want 10", c.Now())
	}
	c.AdvanceTo(5) // never backward
	if c.Now() != 10 {
		t.Fatalf("clock moved backward to %d", c.Now())
	}
}

// TestClockConcurrentCapture checks captures are unique and monotone under
// concurrency (run with -race).
func TestClockConcurrentCapture(t *testing.T) {
	c := NewClock()
	const n, per = 8, 1000
	got := make([][]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				got[i] = append(got[i], c.Capture())
			}
		}(i)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for i := range got {
		prev := uint64(0)
		for _, e := range got[i] {
			if e <= prev {
				t.Fatalf("non-monotone capture %d after %d", e, prev)
			}
			if seen[e] {
				t.Fatalf("duplicate capture %d", e)
			}
			seen[e] = true
			prev = e
		}
	}
}

func TestRowsVisibility(t *testing.T) {
	var r Rows
	r.Append(1) // row 0: inserted at epoch 1, current
	r.Append(2) // row 1: inserted at epoch 2
	r.Invalidate(1, 4)
	r.Append(3) // row 2: inserted and invalidated in the same epoch
	r.Invalidate(2, 3)

	cases := []struct {
		row  int
		e    uint64
		want bool
	}{
		{0, 1, true}, {0, 5, true}, {0, Latest, true},
		{1, 1, false}, // not yet inserted
		{1, 2, true}, {1, 3, true},
		{1, 4, false}, // invalidated at 4: epoch-4 snapshot sees the successor
		{1, Latest, false},
		{2, 2, false}, {2, 3, false}, {2, 4, false}, {2, Latest, false},
	}
	for _, c := range cases {
		if got := r.VisibleAt(c.row, c.e); got != c.want {
			t.Errorf("VisibleAt(%d, %d) = %v want %v", c.row, c.e, got, c.want)
		}
	}
}

func TestRowsSnapshotRestore(t *testing.T) {
	var r Rows
	r.Append(1)
	r.Append(2)
	r.Invalidate(0, 3)
	b, e := r.Snapshot()

	q := RowsOf(b, e)
	if q.Len() != 2 || q.Begin(0) != 1 || q.End(0) != 3 || q.Begin(1) != 2 || !q.Alive(1) {
		t.Fatalf("restored state wrong: %v %v", b, e)
	}
	q.Append(4) // the restored columns keep growing like any other
	if r.Len() != 2 || q.Len() != 3 || !q.Alive(2) {
		t.Fatalf("append after restore: %d/%d rows", r.Len(), q.Len())
	}
}

func TestPinWatermark(t *testing.T) {
	c := NewClock()
	// No pins: the watermark is the current epoch.
	if w := c.Watermark(); w != c.Now() {
		t.Fatalf("unpinned watermark %d want %d", w, c.Now())
	}
	e1, p1 := c.CapturePinned()
	c.Capture()
	c.Capture()
	e2, p2 := c.CapturePinned()
	if e2 <= e1 {
		t.Fatalf("epochs not monotonic: %d then %d", e1, e2)
	}
	if c.Pins() != 2 {
		t.Fatalf("pins %d want 2", c.Pins())
	}
	// The watermark is the minimum pinned epoch.
	if w := c.Watermark(); w != e1 {
		t.Fatalf("watermark %d want %d", w, e1)
	}
	p1.Release()
	if w := c.Watermark(); w != e2 {
		t.Fatalf("watermark after first release %d want %d", w, e2)
	}
	// Release is idempotent.
	p1.Release()
	p2.Release()
	p2.Release()
	if c.Pins() != 0 {
		t.Fatalf("pins %d want 0", c.Pins())
	}
	if w := c.Watermark(); w != c.Now() {
		t.Fatalf("watermark %d want Now %d", w, c.Now())
	}
	// A nil pin (unpinned view) releases as a no-op.
	var p *Pin
	p.Release()
}

func TestRowsCompact(t *testing.T) {
	var r Rows
	for i := 0; i < 6; i++ {
		r.Append(uint64(i + 1))
	}
	r.Invalidate(1, 9)
	r.Invalidate(3, 9)
	// Drop slots 1 and 3; slots 4+ beyond the mask are kept as-is.
	removed := r.Compact([]bool{false, true, false, true})
	if removed != 2 || r.Len() != 4 {
		t.Fatalf("removed %d len %d", removed, r.Len())
	}
	wantBegin := []uint64{1, 3, 5, 6}
	for i, want := range wantBegin {
		if r.Begin(i) != want {
			t.Fatalf("begin[%d] = %d want %d", i, r.Begin(i), want)
		}
	}
	if !r.Alive(0) || !r.Alive(1) || !r.Alive(2) || !r.Alive(3) {
		t.Fatal("survivors should all be alive")
	}
}

func TestPinSetReclaimable(t *testing.T) {
	c := NewClock()
	// Advance to epoch 10 and pin epochs 3 and 7.
	c.AdvanceTo(10)
	p3 := c.PinAt(3)
	p7 := c.PinAt(7)
	ps := c.LivePins()
	if ps.Len() != 2 || ps.Now() != 10 {
		t.Fatalf("LivePins len=%d now=%d want 2/10", ps.Len(), ps.Now())
	}
	cases := []struct {
		begin, end uint64
		want       bool
	}{
		{1, 0, false},  // current version: never reclaimable
		{1, 2, true},   // died before every pin
		{1, 4, false},  // visible at pin 3
		{4, 6, true},   // between the pins: invisible to both
		{4, 8, false},  // visible at pin 7
		{7, 8, false},  // visible at exactly pin 7
		{8, 9, true},   // after the last pin, dead before now
		{8, 11, false}, // end beyond now: next capture could still see it
		{5, 5, true},   // empty interval: visible to no reader ever
		{3, 4, false},  // begin == pin epoch: visible to it
	}
	for _, tc := range cases {
		if got := ps.Reclaimable(tc.begin, tc.end); got != tc.want {
			t.Errorf("Reclaimable(%d, %d) = %v want %v", tc.begin, tc.end, got, tc.want)
		}
	}
	// Releasing a pin changes later snapshots, not an existing PinSet.
	p3.Release()
	if !c.LivePins().Reclaimable(1, 4) {
		t.Fatal("version below released pin should reclaim")
	}
	if ps.Reclaimable(1, 4) {
		t.Fatal("existing PinSet must be immutable")
	}
	p7.Release()
	// No pins: precise degenerates to the end <= now rule.
	ps = c.LivePins()
	if ps.Len() != 0 || ps.Now() != 10 {
		t.Fatalf("empty set len=%d now=%d want 0/10", ps.Len(), ps.Now())
	}
	if !ps.Reclaimable(1, 10) || ps.Reclaimable(1, 11) {
		t.Fatal("empty-set reclaim rule broken")
	}
}
