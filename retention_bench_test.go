// BenchmarkRetention is an update-heavy workload merged with one OLD pin
// held across every cycle, measuring what precise per-pin retention
// keeps versus what the classic min-pin watermark rule would have kept.
// Each iteration updates every row and merges; the pin predates all of
// it, so the coarse rule would retain every dead version ever created
// while the precise rule retains only the versions visible at the pin's
// own epoch.  Reported metrics:
//
//	rows/op            physical row versions stored after the final merge
//	bytes/op           StoreStats.SizeBytes after the final merge
//	retained/op        dead versions kept for the pin by the final merge
//	legacy_retained/op dead versions the watermark rule would have kept
//	reclaim_pct        share of the watermark rule's retention that
//	                   precise retention reclaimed (acceptance: >= 90)
package hyrise_test

import (
	"context"
	"fmt"
	"testing"

	"hyrise"
)

func BenchmarkRetention(b *testing.B) {
	const rows = 20_000
	for _, pinned := range []bool{true, false} {
		b.Run(fmt.Sprintf("old_pin=%v", pinned), func(b *testing.B) {
			s := snapshotBenchStore(b, 1, rows)
			hk, err := hyrise.ColumnOf[uint64](s, "k")
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]int, 0, rows)
			hk.Scan(func(row int, _ uint64) bool {
				ids = append(ids, row)
				return true
			})
			var pin hyrise.ReadView
			if pinned {
				pin = s.Snapshot()
				defer pin.Release()
			}

			// legacyRetained simulates the coarse rule cumulatively: a dead
			// version the min-pin watermark cannot reclaim in its cycle
			// would have stayed forever, so versions accumulate across
			// cycles instead of being re-judged per merge.  The rule's
			// answer is known without asking the merge: the pin predates
			// all churn, so the watermark sits below every invalidation and
			// reclaims none of a cycle's new dead versions; with nothing
			// pinned it sits at the current epoch and reclaims all of them.
			var retained, prevRetained, legacyRetained int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ids {
					nid, err := s.Update(ids[j], map[string]any{"v": uint64(i*rows + j)})
					if err != nil {
						b.Fatal(err)
					}
					ids[j] = nid
				}
				rep, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if pinned {
					legacyRetained += rep.DeadAtFreeze - prevRetained
				}
				retained = rep.DeadAtFreeze - rep.RowsReclaimed
				prevRetained = retained
			}
			b.StopTimer()

			stats := s.StoreStats()
			b.ReportMetric(float64(stats.Rows), "rows/op")
			b.ReportMetric(float64(stats.SizeBytes), "bytes/op")
			b.ReportMetric(float64(retained), "retained/op")
			b.ReportMetric(float64(legacyRetained), "legacy_retained/op")
			if legacyRetained > 0 {
				b.ReportMetric(100*float64(legacyRetained-retained)/float64(legacyRetained), "reclaim_pct")
			}
		})
	}
}
