package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrise/internal/shard"
	"hyrise/internal/table"
)

func newTable(t *testing.T) *table.Table {
	t.Helper()
	tb, err := table.New("t", table.Schema{{Name: "v", Type: table.Uint64}})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// only is the source of a fixed partition list.
func only(parts ...*table.Table) func() []*table.Table {
	return func() []*table.Table { return parts }
}

// eventually polls cond until it holds or five seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

func fill(t *testing.T, tb *table.Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := tb.Insert([]any{uint64(i % 97)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShouldMerge(t *testing.T) {
	tb := newTable(t)
	s := New(only(tb), Config{Fraction: 0.10, MinDeltaRows: 10})
	if s.ShouldMerge() {
		t.Fatal("empty table should not merge")
	}
	fill(t, tb, 11)
	if !s.ShouldMerge() {
		t.Fatal("empty main with delta should merge")
	}
	// Merge manually; now main=11, delta=0.
	if _, err := tb.Merge(t.Context(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if s.ShouldMerge() {
		t.Fatal("empty delta should not merge")
	}
	// MinDeltaRows gate.
	fill(t, tb, 5)
	if s.ShouldMerge() {
		t.Fatal("below MinDeltaRows should not merge")
	}
	fill(t, tb, 10) // 15 > 10% of 11 and > MinDeltaRows
	if !s.ShouldMerge() {
		t.Fatal("fraction exceeded should merge")
	}
}

func TestSchedulerTriggersMerge(t *testing.T) {
	tb := newTable(t)
	fill(t, tb, 1000)
	var merges atomic.Int32
	s := New(only(tb), Config{
		Fraction:     0.01,
		MinDeltaRows: 1,
		Interval:     time.Millisecond,
		OnMerge:      func(table.Report) { merges.Add(1) },
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	deadline := time.After(5 * time.Second)
	for merges.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("scheduler never merged")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if tb.MainRows() != 1000 || tb.DeltaRows() != 0 {
		t.Fatalf("main=%d delta=%d", tb.MainRows(), tb.DeltaRows())
	}
	if s.Merges() < 1 {
		t.Fatal("merge counter")
	}
	if s.LastErr() != nil {
		t.Fatal(s.LastErr())
	}
}

func TestStartTwice(t *testing.T) {
	tb := newTable(t)
	s := New(only(tb), Config{Interval: time.Hour})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := s.Start(); err != ErrAlreadyRunning {
		t.Fatalf("second Start: %v", err)
	}
}

func TestStopIdempotent(t *testing.T) {
	tb := newTable(t)
	s := New(only(tb), Config{Interval: time.Millisecond})
	s.Stop() // never started: no-op
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	s.Stop()
	// Restart works.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

func TestPauseResume(t *testing.T) {
	tb := newTable(t)
	fill(t, tb, 100)
	var merges atomic.Int32
	s := New(only(tb), Config{
		Fraction: 0.001, MinDeltaRows: 1, Interval: time.Millisecond,
		OnMerge: func(table.Report) { merges.Add(1) },
	})
	s.Pause()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	time.Sleep(30 * time.Millisecond)
	if merges.Load() != 0 {
		t.Fatal("merged while paused")
	}
	if !s.Paused() {
		t.Fatal("Paused flag")
	}
	s.Resume()
	deadline := time.After(5 * time.Second)
	for merges.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no merge after resume")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestBackgroundStrategy: the paper's strategy (b), a constant
// single-thread background merge, is Threads: 1.
func TestBackgroundStrategy(t *testing.T) {
	tb := newTable(t)
	fill(t, tb, 5000)
	var got atomic.Int32
	s := New(only(tb), Config{
		Fraction: 0.001, MinDeltaRows: 1, Interval: time.Millisecond,
		Threads: 1,
		OnMerge: func(r table.Report) {
			got.Store(int32(r.Threads))
		},
	})
	s.Start()
	defer s.Stop()
	deadline := time.After(5 * time.Second)
	for got.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no merge")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got.Load() != 1 {
		t.Fatalf("background merge used %d threads", got.Load())
	}
}

func TestDefaults(t *testing.T) {
	var c Config
	c.setDefaults()
	if c.Fraction != 0.05 || c.Interval != 100*time.Millisecond {
		t.Fatalf("defaults %+v", c)
	}
}

func TestMergeNow(t *testing.T) {
	tb := newTable(t)
	s := New(only(tb), Config{Threads: 2})
	// Nothing to merge: a no-op, no error.
	if err := s.MergeNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	fill(t, tb, 50)
	// The trigger condition is irrelevant: MergeNow drains regardless.
	if err := s.MergeNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tb.DeltaRows() != 0 || tb.MainRows() != 50 {
		t.Fatalf("delta=%d main=%d after MergeNow", tb.DeltaRows(), tb.MainRows())
	}
}

// TestMergeNowReclaimsMain: a partition whose delta is empty but whose
// main holds dead versions is dirty, and MergeNow reclaims them.
func TestMergeNowReclaimsMain(t *testing.T) {
	tb := newTable(t)
	fill(t, tb, 50)
	s := New(only(tb), Config{})
	if err := s.MergeNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 10; id++ {
		if err := tb.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if tb.DeltaRows() != 0 {
		t.Fatalf("delete grew the delta to %d rows", tb.DeltaRows())
	}
	if err := s.MergeNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 40 || tb.ValidRows() != 40 || tb.RetiredRows() != 10 {
		t.Fatalf("rows=%d valid=%d retired=%d after MergeNow, want 40/40/10",
			tb.Rows(), tb.ValidRows(), tb.RetiredRows())
	}
}

// TestMergeNowAllPartitions: MergeNow drains every partition the source
// lists, concurrently.
func TestMergeNowAllPartitions(t *testing.T) {
	t1, t2 := newTable(t), newTable(t)
	fill(t, t1, 30)
	fill(t, t2, 20)
	s := New(only(t1, t2), Config{})
	if err := s.MergeNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if t1.DeltaRows() != 0 || t2.DeltaRows() != 0 {
		t.Fatalf("deltas %d/%d after MergeNow", t1.DeltaRows(), t2.DeltaRows())
	}
	if t1.MainRows() != 30 || t2.MainRows() != 20 {
		t.Fatalf("mains %d/%d", t1.MainRows(), t2.MainRows())
	}
}

// TestIndependentTriggers verifies that only the partition whose delta
// fraction exceeds the threshold is merged: a hot partition merges while
// cold partitions stay untouched.
func TestIndependentTriggers(t *testing.T) {
	hot, mid, cold := newTable(t), newTable(t), newTable(t)
	var merged atomic.Int32
	s := New(only(hot, mid, cold), Config{
		Fraction: 0.5,
		Interval: time.Millisecond,
		OnMerge:  func(table.Report) { merged.Add(1) },
	})
	// Hot partition: 100 delta rows on an empty main always exceeds the
	// trigger.  The others get nothing.
	fill(t, hot, 100)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "hot partition never merged", func() bool { return hot.MergeGeneration() > 0 })
	s.Stop()
	if cold.MergeGeneration() != 0 || mid.MergeGeneration() != 0 {
		t.Fatal("cold partition merged without delta rows")
	}
	if hot.DeltaRows() != 0 || hot.MainRows() != 100 {
		t.Fatalf("hot partition state: delta=%d main=%d", hot.DeltaRows(), hot.MainRows())
	}
	if s.Merges() == 0 {
		t.Fatal("Merges() = 0")
	}
	if int(merged.Load()) != s.Merges() {
		t.Fatalf("OnMerge saw %d merges, counter says %d", merged.Load(), s.Merges())
	}
	if err := s.LastErr(); err != nil {
		t.Fatal(err)
	}
}

// TestThreadBudget checks that the default budget is the whole machine for
// every merge: concurrent partition merges share the cores through the
// one pool instead of dividing the budget.
func TestThreadBudget(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	t1, t2 := newTable(t), newTable(t)
	fill(t, t1, 100)
	fill(t, t2, 100)
	var threads sync.Map
	s := New(only(t1, t2), Config{
		Fraction: 0.5, Interval: time.Millisecond,
		OnMerge: func(r table.Report) { threads.Store(r.Threads, true) },
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "partitions never merged", func() bool { return s.Merges() >= 2 })
	s.Stop()
	threads.Range(func(k, _ any) bool {
		if k.(int) != want {
			t.Errorf("scheduled merge ran with %d threads, want %d", k, want)
		}
		return true
	})
}

// TestSourceGrows is the reshard case: the source lists more partitions
// mid-run.  The appended partitions are merged within a few ticks and
// MergeNow reaches them.
func TestSourceGrows(t *testing.T) {
	first := newTable(t)
	var mu sync.Mutex
	parts := []*table.Table{first}
	src := func() []*table.Table {
		mu.Lock()
		defer mu.Unlock()
		return append([]*table.Table(nil), parts...)
	}
	s := New(src, Config{Fraction: 0.5, Interval: time.Millisecond})
	fill(t, first, 50)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "first partition never merged", func() bool { return first.DeltaRows() == 0 })

	added := []*table.Table{newTable(t), newTable(t)}
	mu.Lock()
	parts = append(parts, added...)
	mu.Unlock()
	for _, p := range added {
		fill(t, p, 50)
	}
	eventually(t, "partitions added to the source were never merged", func() bool {
		return added[0].DeltaRows() == 0 && added[1].DeltaRows() == 0
	})
	s.Stop()
	if err := s.LastErr(); err != nil {
		t.Fatal(err)
	}

	// Below the trigger the loop leaves the new rows alone; MergeNow
	// drains them wherever they are.
	fill(t, added[1], 10)
	if s.ShouldMerge() {
		t.Fatal("10 delta rows on a 50-row main should not trigger at 0.5")
	}
	if err := s.MergeNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if added[1].DeltaRows() != 0 || added[1].MainRows() != 60 {
		t.Fatalf("MergeNow missed an added partition: delta=%d main=%d",
			added[1].DeltaRows(), added[1].MainRows())
	}
}

// TestStopCancelsInflight: Stop cancels and waits for merges in flight;
// a cancelled merge rolls back and is not an error.
func TestStopCancelsInflight(t *testing.T) {
	tbs := []*table.Table{newTable(t), newTable(t), newTable(t)}
	for _, tb := range tbs {
		fill(t, tb, 20000)
	}
	s := New(only(tbs...), Config{Interval: time.Millisecond})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	eventually(t, "no merge started", func() bool {
		for _, tb := range tbs {
			if tb.Merging() || tb.MergeGeneration() > 0 {
				return true
			}
		}
		return false
	})
	s.Stop()
	for i, tb := range tbs {
		if tb.Merging() {
			t.Fatalf("partition %d still merging after Stop", i)
		}
		if tb.Rows() != 20000 || tb.MainRows()+tb.DeltaRows() != 20000 {
			t.Fatalf("partition %d lost rows: rows=%d main=%d delta=%d",
				i, tb.Rows(), tb.MainRows(), tb.DeltaRows())
		}
	}
	if err := s.LastErr(); err != nil {
		t.Fatalf("cancelled merge recorded as failure: %v", err)
	}
}

// TestPinnedSealedPartition reshards a one-shard store under a pin that
// sees every moved row, so the sealed partition keeps their dead versions
// through its merge.  A scheduler polling every millisecond must merge
// that partition at most once while the pin is held — each further merge
// would rewrite its main and reclaim nothing — even while a reader's
// fan-out reads pin and release newer epochs all along, and after the
// release it must drain the partition, so the store prunes its window.
func TestPinnedSealedPartition(t *testing.T) {
	st, err := shard.New("t", table.Schema{{Name: "k", Type: table.Uint64}}, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 200)
	for i := range rows {
		rows[i] = []any{uint64(i)}
	}
	if _, err := st.InsertRows(rows); err != nil {
		t.Fatal(err)
	}
	pin := st.Snapshot()
	defer pin.Release()
	if _, err := st.Reshard(t.Context(), 2); err != nil {
		t.Fatal(err)
	}
	sealed := st.Shard(0)
	if !sealed.Sealed() || sealed.Rows()-sealed.ValidRows() != 200 {
		t.Fatalf("partition 0: sealed %v, %d dead rows, want sealed with 200", sealed.Sealed(), sealed.Rows()-sealed.ValidRows())
	}
	gen := sealed.MergeGeneration()
	stop := make(chan struct{})
	var reads sync.WaitGroup
	reads.Add(1)
	go func() {
		defer reads.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := st.ValidRows(); n != 200 { // a latest read of all partitions pins
				t.Errorf("fan-out read counts %d rows, want 200", n)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		reads.Wait()
	}()
	s := New(st.Partitions, Config{Interval: time.Millisecond})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
		time.Sleep(5 * time.Millisecond)
		if d := sealed.MergeGeneration() - gen; d > 1 {
			t.Fatalf("the pinned sealed partition merged %d times in %v", d, time.Since(start))
		}
	}
	if sealed.Rows()-sealed.ValidRows() != 200 || st.Shard(0) == nil {
		t.Fatalf("a merge under the pin reclaimed: %d dead rows left", sealed.Rows()-sealed.ValidRows())
	}
	pin.Release()
	eventually(t, "the sealed window was not drained and pruned after the release", func() bool {
		return st.Shard(0) == nil
	})
	if sealed.Rows() != 0 {
		t.Fatalf("pruned partition holds %d rows", sealed.Rows())
	}
}
