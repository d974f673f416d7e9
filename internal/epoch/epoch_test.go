package epoch

import (
	"fmt"
	"slices"
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
	r.Append(2)
	r.Invalidate(0, 3)
	r.Invalidate(2, 3)
	b, e := r.Snapshot()

	// Restored with its first two slots as main: slot 0's end becomes an
	// exception, slot 2's stays a delta end.
	q := RowsOf(b, e, 2)
	if q.MainLen() != 2 || q.Dead() != 2 || q.Alive(0) || !q.Alive(1) || q.Alive(2) {
		t.Fatalf("restored state wrong: %v %v", b, e)
	}
	if qb, qe := q.Snapshot(); !slices.Equal(qb, b) || !slices.Equal(qe, e) {
		t.Fatalf("Snapshot(RowsOf) = %v %v, want %v %v", qb, qe, b, e)
	}
	q.Append(4) // the restored columns keep growing like any other
	rb, _ := r.Snapshot()
	qb, _ := q.Snapshot()
	if len(rb) != 3 || len(qb) != 4 || !q.Alive(3) {
		t.Fatalf("append after restore: %d/%d rows", len(rb), len(qb))
	}
}

// flat is the reference visibility over flat begin/end columns.
func flat(begin, end []uint64, i int, e uint64) bool {
	return begin[i] <= e && (end[i] == 0 || end[i] > e)
}

// TestRowsMainAt pins the main's (k, hide) form against the flat rule at
// every epoch: k counts the main slots that began by e, and a bit of hide
// is set exactly for those below k that are invisible at e.  A latest read
// and a read no exception is newer than return the dead bitmap itself, and
// a main with no dead slot a nil one.
func TestRowsMainAt(t *testing.T) {
	var r Rows
	for i := range 150 {
		r.Append(uint64(1 + i/10)) // begins 1..15, ten slots each
	}
	for _, s := range []int{3, 64, 70, 128, 149} {
		r.Invalidate(s, uint64(15+s%3))
	}
	if k, hide := r.MainAt(Latest); k != 0 || hide != nil {
		t.Fatalf("empty main: MainAt = %d, %v", k, hide)
	}
	r.Fold(140, nil)
	r.Invalidate(12, 18)
	r.Invalidate(145, 18) // a delta slot
	if r.MainLen() != 140 || r.Dead() != 7 {
		t.Fatalf("MainLen %d Dead %d, want 140 and 7", r.MainLen(), r.Dead())
	}
	b, e := r.Snapshot()
	for ep := uint64(0); ep <= 19; ep++ {
		for _, at := range []uint64{ep, Latest} {
			k, hide := r.MainAt(at)
			ks, dead, seen := r.MainSeen(at)
			for i := range 140 {
				want := flat(b, e, i, at)
				got := i < k && (hide == nil || hide[i>>6]>>(i&63)&1 == 0)
				if got != want || r.VisibleAt(i, at) != want {
					t.Fatalf("epoch %d slot %d: MainAt says %v, VisibleAt %v, want %v", at, i, got, r.VisibleAt(i, at), want)
				}
				got = i < ks && (dead == nil || dead[i>>6]>>(i&63)&1 == 0 || slices.Contains(seen, int32(i)))
				if got != want {
					t.Fatalf("epoch %d slot %d: MainSeen says %v, want %v", at, i, got, want)
				}
			}
		}
	}
	if _, hide := r.MainAt(Latest); &hide[0] != &r.dead[0] {
		t.Fatal("a latest read copied the bitmap")
	}
	if _, hide := r.MainAt(18); &hide[0] != &r.dead[0] {
		t.Fatal("a read no exception is newer than copied the bitmap")
	}
	if n := testing.AllocsPerRun(100, func() { r.MainAt(Latest) }); n != 0 {
		t.Fatalf("a latest MainAt allocates %v times", n)
	}
	if _, hide := r.MainAt(17); &hide[0] == &r.dead[0] {
		t.Fatal("a read older than a death shares the bitmap")
	}
	if _, dead, seen := r.MainSeen(17); &dead[0] != &r.dead[0] || len(seen) == 0 {
		t.Fatal("MainSeen copied the bitmap, or lists no death after 17")
	}
	if n := testing.AllocsPerRun(100, func() { r.MainSeen(17) }); n != 0 {
		t.Fatalf("a pinned MainSeen allocates %v times", n)
	}
}

// BenchmarkVisibleAtPinned measures VisibleAt on a dead main slot at an
// epoch older than every death of a main of 1M slots, with 1 slot in 100
// dead: the bound on a pinned read of one dead row, a scan of the
// exceptions newer than the pin.
func BenchmarkVisibleAtPinned(b *testing.B) {
	const n = 1 << 20
	var r Rows
	for range n {
		r.Append(1)
	}
	r.Fold(n, nil)
	for i := 0; i < n; i += 100 {
		r.Invalidate(i, uint64(2+i/100))
	}
	for _, dead := range []int{0, n / 200 * 100, n - n%100} {
		b.Run(fmt.Sprintf("slot=%d", dead), func(b *testing.B) {
			for b.Loop() {
				if !r.VisibleAt(dead, 1) {
					b.Fatal("a version dead after the pin is hidden")
				}
			}
		})
	}
}

// TestRowsFold folds a delta into the main with and without drops: the
// survivors keep their order and epochs, the folded dead slots become
// exceptions, slots beyond the fold stay delta, and the flat image is that
// of the surviving slots.
func TestRowsFold(t *testing.T) {
	var r Rows
	for i := range 8 {
		r.Append(uint64(i + 1))
	}
	r.Invalidate(1, 9)
	r.Fold(4, nil) // main: slots 0..3, slot 1 dead
	r.Invalidate(3, 10)
	r.Invalidate(5, 11)
	r.Invalidate(6, 12)
	b, e := r.Snapshot()
	// Fold slots 4 and 5 into the main and drop slots 1 and 5; slots 6
	// and 7 stay delta.
	r.Fold(2, []int{1, 5})
	var wantB, wantE []uint64
	for i := range b {
		if i != 1 && i != 5 {
			wantB, wantE = append(wantB, b[i]), append(wantE, e[i])
		}
	}
	if gb, ge := r.Snapshot(); !slices.Equal(gb, wantB) || !slices.Equal(ge, wantE) {
		t.Fatalf("after Fold: %v %v, want %v %v", gb, ge, wantB, wantE)
	}
	if r.MainLen() != 4 || r.Dead() != 2 || r.Alive(2) || !r.Alive(3) || r.Alive(4) {
		t.Fatalf("after Fold: MainLen %d Dead %d, alive %v %v %v", r.MainLen(), r.Dead(), r.Alive(2), r.Alive(3), r.Alive(4))
	}
	var dead []int
	r.EachDead(len(wantB), func(slot int, begin, end uint64) { dead = append(dead, slot) })
	if !slices.Equal(dead, []int{2, 4}) {
		t.Fatalf("EachDead visits %v, want [2 4]", dead)
	}
	if got, want := r.SizeBytes(), 8*6+8*1+12*1+8*2; got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
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
	// Released reports the release, including to a pin set taken before.
	if !p1.Released() || !p2.Released() {
		t.Fatal("released pins report live")
	}
	_, p3 := c.CapturePinned()
	ps := c.LivePins()
	if p3.Released() || ps.Retainer(1, p3.Epoch()+1) != p3 {
		t.Fatal("a live pin reports released, or retains nothing it sees")
	}
	p3.Release()
	if !ps.Retainer(1, p3.Epoch()+1).Released() {
		t.Fatal("a pin set's retainer does not report its release")
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
