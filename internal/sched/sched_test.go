package sched

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

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
	s := New(tb, Config{Fraction: 0.10, MinDeltaRows: 10})
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
	s := New(tb, Config{
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
	s := New(tb, Config{Interval: time.Hour})
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
	s := New(tb, Config{Interval: time.Millisecond})
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
	s := New(tb, Config{
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

func TestBackgroundStrategy(t *testing.T) {
	tb := newTable(t)
	fill(t, tb, 5000)
	var got atomic.Int32
	s := New(tb, Config{
		Fraction: 0.001, MinDeltaRows: 1, Interval: time.Millisecond,
		Strategy: Background,
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
	s := New(tb, Config{Threads: 2})
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

func TestMultiMergeNow(t *testing.T) {
	t1, t2 := newTable(t), newTable(t)
	fill(t, t1, 30)
	fill(t, t2, 20)
	m := NewMulti([]MergeTable{t1, t2}, Config{})
	if err := m.MergeNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if t1.DeltaRows() != 0 || t2.DeltaRows() != 0 {
		t.Fatalf("deltas %d/%d after Multi.MergeNow", t1.DeltaRows(), t2.DeltaRows())
	}
	if t1.MainRows() != 30 || t2.MainRows() != 20 {
		t.Fatalf("mains %d/%d", t1.MainRows(), t2.MainRows())
	}
}
