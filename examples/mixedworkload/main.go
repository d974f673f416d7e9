// Mixedworkload runs the paper's headline scenario: one table serving a
// combined transactional and analytical workload (§2's Demand-Planning /
// Available-To-Promise applications) while the merge scheduler folds
// deltas in the background.  OLTP writers, OLTP readers and OLAP scan
// queries run concurrently; the output shows queries proceeding during
// online merges and the delta fraction staying bounded.
//
// Run it with -shards 8 to hash-partition the same workload across shards:
// the code path does not change, only the contention profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"hyrise"
)

func main() {
	shards := flag.Int("shards", 1, "hash-partition the table across N shards")
	flag.Parse()

	schema := hyrise.Schema{
		{Name: "customer", Type: hyrise.Uint64},
		{Name: "amount", Type: hyrise.Uint32},
	}
	s, err := hyrise.NewShardedTable("orders", schema, "customer", *shards)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running over %d partition(s)\n", len(s.Partitions()))

	// Seed historical data and compress it.
	for i := 0; i < 200_000; i++ {
		s.Insert([]any{uint64(i % 5000), uint32(i % 1000)})
	}
	if _, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		log.Fatal(err)
	}

	// The scheduler supervises every partition independently, merging
	// whenever its delta exceeds 2% of its main partition (paper §4: the
	// trigger is N_D > fraction * N_M).
	var merges atomic.Int32
	scheduler := hyrise.NewScheduler(s, hyrise.SchedulerConfig{
		Fraction:     0.02,
		MinDeltaRows: 500,
		Interval:     20 * time.Millisecond,
		OnMerge: func(r hyrise.MergeReport) {
			merges.Add(1)
			fmt.Printf("  [scheduler] merged %6d rows in %8s (partition main now %d rows)\n",
				r.RowsMerged, r.Wall.Round(time.Millisecond), r.MainRowsAfter)
		},
	})
	if err := scheduler.Start(); err != nil {
		log.Fatal(err)
	}
	defer scheduler.Stop()

	const runFor = 3 * time.Second
	deadline := time.Now().Add(runFor)
	var wg sync.WaitGroup
	var inserts, lookups, scans atomic.Int64

	// OLTP writers: order entry.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := hyrise.NewUniformGenerator(5000, int64(w))
			for time.Now().Before(deadline) {
				if _, err := s.Insert([]any{gen.Next(), uint32(w)}); err != nil {
					log.Println(err)
					return
				}
				inserts.Add(1)
			}
		}(w)
	}
	// OLTP readers: customer lookups, paced at a few hundred QPS.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h, _ := hyrise.ColumnOf[uint64](s, "customer")
		gen := hyrise.NewUniformGenerator(5000, 99)
		for time.Now().Before(deadline) {
			h.Lookup(gen.Next())
			lookups.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// OLAP reader: full-column aggregation, paced like a reporting
	// dashboard (a busy-looped full scan would monopolize the table's
	// read lock and starve order entry).
	wg.Add(1)
	go func() {
		defer wg.Done()
		h, _ := hyrise.NumericColumnOf[uint32](s, "amount")
		for time.Now().Before(deadline) {
			_ = h.Sum()
			scans.Add(1)
			time.Sleep(100 * time.Millisecond)
		}
	}()

	deltaPct := func() float64 {
		main, delta := s.MainRows(), s.DeltaRows()
		if main == 0 {
			return 0
		}
		return 100 * float64(delta) / float64(main)
	}

	// Progress telemetry.
	for time.Now().Before(deadline) {
		time.Sleep(500 * time.Millisecond)
		fmt.Printf("delta %5.2f%% of main | %7d inserts | %6d lookups | %4d scans | merging=%v\n",
			deltaPct(), inserts.Load(), lookups.Load(), scans.Load(), s.Merging())
	}
	wg.Wait()

	fmt.Printf("\nran %s: %d inserts (%.0f/s), %d lookups, %d scans, %d scheduled merges\n",
		runFor, inserts.Load(), float64(inserts.Load())/runFor.Seconds(),
		lookups.Load(), scans.Load(), merges.Load())
	fmt.Printf("final state: main=%d rows, delta=%d rows (%.2f%%)\n",
		s.MainRows(), s.DeltaRows(), deltaPct())
	fmt.Println("\nthe delta fraction stays bounded while reads keep running: the merge is online")
}
