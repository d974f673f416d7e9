package hyrise_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hyrise"
)

// TestStoreGCAcceptance is the acceptance loop run through the public
// Table API on both topologies: under a sustained 100% update workload
// with no pinned views, StoreStats.Rows - ValidRows and SizeBytes stay
// bounded across >= 10 merge cycles, while a pinned view captured mid-run
// still reads its exact original row set afterwards — and reclaimed ids
// keep failing with ErrRowInvalid.
func TestStoreGCAcceptance(t *testing.T) {
	schema := hyrise.Schema{
		{Name: "k", Type: hyrise.Uint64},
		{Name: "v", Type: hyrise.Uint64},
	}
	// The parallel-merge variants route every merge cycle through the
	// intra-column range-partitioned GC kernels across 1/8 shards: four
	// threads per partition over two columns merge within each column.
	parallel := hyrise.MergeOptions{Threads: 4}
	cases := []struct {
		name  string
		mk    func() (*hyrise.Table, error)
		merge hyrise.MergeOptions
	}{
		{"flat", func() (*hyrise.Table, error) { return hyrise.NewTable("gc", schema) }, hyrise.MergeOptions{}},
		{"sharded", func() (*hyrise.Table, error) {
			return hyrise.NewShardedTable("gc", schema, "k", 4)
		}, hyrise.MergeOptions{}},
		{"flat-parallel-merge", func() (*hyrise.Table, error) { return hyrise.NewTable("gc", schema) }, parallel},
		{"sharded-1-parallel-merge", func() (*hyrise.Table, error) {
			return hyrise.NewShardedTable("gc", schema, "k", 1)
		}, parallel},
		{"sharded-8-parallel-merge", func() (*hyrise.Table, error) {
			return hyrise.NewShardedTable("gc", schema, "k", 8)
		}, parallel},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			const n = 150
			ids := make([]int, n)
			var pinnedSum uint64
			for i := range ids {
				if ids[i], err = s.Insert([]any{uint64(i), uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			firstVersion := ids[0]

			var view hyrise.ReadView
			pinned := false
			var sizeCap int
			h, err := hyrise.NumericColumnOf[uint64](s, "v")
			if err != nil {
				t.Fatal(err)
			}
			for cycle := 0; cycle < 12; cycle++ {
				for i := range ids {
					nid, err := s.Update(ids[i], map[string]any{"v": uint64(cycle*n + i)})
					if err != nil {
						t.Fatalf("cycle %d: %v", cycle, err)
					}
					ids[i] = nid
				}
				rep, err := s.RequestMerge(context.Background(), c.merge)
				if err != nil {
					t.Fatal(err)
				}
				if c.merge.Threads > 0 {
					for i, p := range s.Partitions() {
						if got := p.LastMergeReport().Columns[0].Threads; got != 4 {
							t.Fatalf("cycle %d: partition %d merged with %d threads per column, want 4 (intra-column)", cycle, i, got)
						}
					}
				}
				stats := s.StoreStats()
				if !pinned {
					// Bounded: the merge reclaimed every superseded version.
					if rep.RowsReclaimed != n {
						t.Fatalf("cycle %d: reclaimed %d want %d", cycle, rep.RowsReclaimed, n)
					}
					if stats.Rows-stats.ValidRows != 0 || stats.Rows != n {
						t.Fatalf("cycle %d: rows=%d valid=%d, growth not bounded",
							cycle, stats.Rows, stats.ValidRows)
					}
					if sizeCap == 0 {
						sizeCap = 4 * stats.SizeBytes
					}
					if stats.SizeBytes > sizeCap {
						t.Fatalf("cycle %d: size %d exceeds cap %d", cycle, stats.SizeBytes, sizeCap)
					}
				} else if got := s.ValidRowsAt(view); got != n {
					t.Fatalf("cycle %d: pinned view sees %d rows want %d", cycle, got, n)
				}
				if cycle == 6 {
					view = s.Snapshot()
					pinned = true
					pinnedSum = h.SumAt(view)
				}
			}

			// The mid-run pin froze its row set exactly.
			if got := h.SumAt(view); got != pinnedSum {
				t.Fatalf("pinned sum drifted: %d want %d", got, pinnedSum)
			}
			// Reclaimed ids are retired for good.
			if _, err := s.Row(firstVersion); !errors.Is(err, hyrise.ErrRowInvalid) {
				t.Fatalf("Row(retired): %v want ErrRowInvalid", err)
			}
			// Releasing the pin re-bounds the store on the next merge.
			view.Release()
			if _, err := s.RequestMerge(context.Background(), c.merge); err != nil {
				t.Fatal(err)
			}
			stats := s.StoreStats()
			if stats.Rows != stats.ValidRows || stats.ValidRows != n {
				t.Fatalf("after release: rows=%d valid=%d want %d", stats.Rows, stats.ValidRows, n)
			}
			if stats.RetiredRows == 0 || stats.ReclaimedBytes == 0 {
				t.Fatalf("GC counters missing from StoreStats: %+v", stats)
			}
		})
	}
}

// TestRetentionUnderOldPin holds one pin taken before any churn across
// update-every-row cycles with a store-level merge per cycle.  The store
// report must carry the partitions' dead-version counts, and precise
// per-pin retention must keep only the versions visible at the pin: the
// classic min-pin watermark would keep every cycle's dead versions, so
// after n cycles the precise rule reclaims (n-1)/n of what the watermark
// rule keeps — 90 % at the ten cycles run here.
func TestRetentionUnderOldPin(t *testing.T) {
	const rows, cycles = 1000, 10
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := hyrise.NewShardedTable("ret", hyrise.Schema{
				{Name: "k", Type: hyrise.Uint64},
				{Name: "v", Type: hyrise.Uint64},
			}, "k", shards)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int, rows)
			for i := range ids {
				if ids[i], err = s.Insert([]any{uint64(i), uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
			pin := s.Snapshot()
			defer pin.Release()

			// The pin predates all churn, so the watermark sits below every
			// invalidation and would reclaim none of a cycle's dead versions:
			// they accumulate across cycles instead of being re-judged.
			var retained, watermarkKept int
			for c := 0; c < cycles; c++ {
				for j := range ids {
					if ids[j], err = s.Update(ids[j], map[string]any{"v": uint64(c*rows + j)}); err != nil {
						t.Fatal(err)
					}
				}
				rep, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				var dead int
				for _, p := range s.Partitions() {
					dead += p.LastMergeReport().DeadAtFreeze
				}
				if rep.DeadAtFreeze != dead || rep.LivePins != 1 {
					t.Fatalf("cycle %d: store report DeadAtFreeze=%d LivePins=%d, want %d and 1",
						c, rep.DeadAtFreeze, rep.LivePins, dead)
				}
				watermarkKept += rep.DeadAtFreeze - retained
				retained = rep.DeadAtFreeze - rep.RowsReclaimed
			}
			if retained != rows {
				t.Fatalf("retained %d dead versions, want the %d visible at the pin", retained, rows)
			}
			if pct := 100 * float64(watermarkKept-retained) / float64(watermarkKept); pct < 90 {
				t.Fatalf("precise retention reclaimed %.1f%% of the watermark rule's %d, want >= 90%%",
					pct, watermarkKept)
			}
		})
	}
}
