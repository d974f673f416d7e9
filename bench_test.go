// Benchmarks regenerating the paper's evaluation artifacts with testing.B,
// one benchmark family per table and figure.  Sizes are reduced relative to
// the paper so `go test -bench=.` completes in minutes; `cmd/mergebench`
// runs the same experiments at configurable scale with the paper's exact
// parameter grids and prints the corresponding rows.
//
//	Figure 7  -> BenchmarkFigure7UpdateCost
//	Figure 8  -> BenchmarkFigure8ValueLength
//	Figure 9  -> BenchmarkFigure9UpdateRate
//	Table 2   -> BenchmarkTable2Scalability
//	§2 (VBAP) -> BenchmarkSec2MergeDuration
//	Figure 1  -> BenchmarkFigure1WorkloadMixes
//	Figures 2-4 are data analyses; their generators are benchmarked by
//	BenchmarkCustomerSystemProfile.
package hyrise_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"hyrise"
	"hyrise/internal/colstore"
	"hyrise/internal/core"
	"hyrise/internal/delta"
	"hyrise/internal/workload"
)

// benchColumn builds a main partition and a list of delta values outside
// the timed region.
func benchColumn(nm, nd int, uniqueFrac float64, seed int64) (*colstore.Main[uint64], []uint64) {
	gen := workload.NewUniformForUniqueFraction(nm, uniqueFrac, seed)
	vals := workload.Fill(gen, nm)
	m := colstore.FromValues(vals)
	dgen := workload.NewUniformForUniqueFraction(nd, uniqueFrac, seed+1)
	return m, workload.Fill(dgen, nd)
}

func fillDelta(vals []uint64) *delta.Partition[uint64] {
	d := delta.New[uint64]()
	for _, v := range vals {
		d.Insert(v)
	}
	return d
}

// BenchmarkFigure7UpdateCost reproduces Figure 7's sweep: update cost for
// varying delta sizes, unoptimized vs optimized merge (both parallel).
// NM is 2M (paper: 100M) with 10% unique 8-byte values.
func BenchmarkFigure7UpdateCost(b *testing.B) {
	const nm = 2_000_000
	for _, nd := range []int{20_000, 80_000, 160_000} {
		m, dv := benchColumn(nm, nd, 0.10, 7)
		for _, alg := range []core.Algorithm{core.Naive, core.Optimized} {
			name := fmt.Sprintf("delta=%d/alg=%v", nd, alg)
			b.Run(name, func(b *testing.B) {
				d := fillDelta(dv)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st := core.MergeColumn(m, d, core.Options{Algorithm: alg})
					b.ReportMetric(st.CyclesPerTuple(st.Total(), 3.3e9), "cycles/tuple")
				}
			})
		}
	}
}

// BenchmarkFigure8ValueLength reproduces Figure 8: update cost vs
// value-length (4, 8, 16 bytes) at 1% and 100% unique values.
func BenchmarkFigure8ValueLength(b *testing.B) {
	const nm, nd = 1_000_000, 50_000
	for _, unique := range []float64{0.01, 1.0} {
		gen := workload.NewUniformForUniqueFraction(nm, unique, 3)
		mainVals := workload.Fill(gen, nm)
		dgen := workload.NewUniformForUniqueFraction(nd, unique, 4)
		deltaVals := workload.Fill(dgen, nd)

		b.Run(fmt.Sprintf("unique=%g/Ej=4", unique), func(b *testing.B) {
			mv := make([]uint32, nm)
			for i, v := range mainVals {
				mv[i] = uint32(v)
			}
			m := colstore.FromValues(mv)
			d := delta.New[uint32]()
			for _, v := range deltaVals {
				d.Insert(uint32(v))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.MergeColumn(m, d, core.Options{})
			}
		})
		b.Run(fmt.Sprintf("unique=%g/Ej=8", unique), func(b *testing.B) {
			m := colstore.FromValues(mainVals)
			d := fillDelta(deltaVals)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.MergeColumn(m, d, core.Options{})
			}
		})
		b.Run(fmt.Sprintf("unique=%g/Ej=16", unique), func(b *testing.B) {
			m := colstore.FromValues(workload.Strings(mainVals))
			d := delta.New[string]()
			for _, v := range deltaVals {
				d.Insert(workload.FixedString(v))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.MergeColumn(m, d, core.Options{})
			}
		})
	}
}

// BenchmarkFigure9UpdateRate reproduces Figure 9's grid: main size x
// unique fraction with the delta fixed at 1% of main.  The reported
// updates/s metric assumes the paper's 300-column table.
func BenchmarkFigure9UpdateRate(b *testing.B) {
	for _, nm := range []int{500_000, 2_000_000, 8_000_000} {
		for _, uniquePct := range []float64{0.1, 1, 10, 100} {
			nd := nm / 100
			m, dv := benchColumn(nm, nd, uniquePct/100, int64(nm))
			b.Run(fmt.Sprintf("NM=%d/unique=%g%%", nm, uniquePct), func(b *testing.B) {
				d := fillDelta(dv)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st := core.MergeColumn(m, d, core.Options{})
					rate := float64(nd) / (st.Total().Seconds() * 300)
					b.ReportMetric(rate, "updates/s(NC=300)")
				}
			})
		}
	}
}

// BenchmarkTable2Scalability reproduces Table 2: per-step cost serial vs
// all cores at 1% and 100% unique.
func BenchmarkTable2Scalability(b *testing.B) {
	const nm, nd = 2_000_000, 20_000
	for _, unique := range []float64{0.01, 1.0} {
		m, dv := benchColumn(nm, nd, unique, 11)
		for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("unique=%g/threads=%d", unique, threads), func(b *testing.B) {
				d := fillDelta(dv)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st := core.MergeColumn(m, d, core.Options{Threads: threads})
					b.ReportMetric(st.CyclesPerTuple(st.Step1(), 3.3e9), "step1-cpt")
					b.ReportMetric(st.CyclesPerTuple(st.Step2, 3.3e9), "step2-cpt")
				}
			})
		}
	}
}

// BenchmarkSec2MergeDuration reproduces the §2 VBAP scenario at reduced
// scale: a wide table merged through the table layer.
func BenchmarkSec2MergeDuration(b *testing.B) {
	const columns, rows, deltaRows = 23, 100_000, 2_500 // 1/10 columns, ~1/300 rows
	schema := hyrise.Schema{}
	for c := 0; c < columns; c++ {
		schema = append(schema, hyrise.ColumnDef{Name: fmt.Sprintf("c%d", c), Type: hyrise.Uint64})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb, err := hyrise.NewTable("vbap", schema)
		if err != nil {
			b.Fatal(err)
		}
		row := make([]any, columns)
		gen := hyrise.NewUniformGenerator(1000, int64(i))
		for r := 0; r < rows+deltaRows; r++ {
			for c := range row {
				row[c] = gen.Next()
			}
			if _, err := tb.Insert(row); err != nil {
				b.Fatal(err)
			}
			if r == rows-1 {
				if _, err := tb.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		rep, err := tb.RequestMerge(context.Background(), hyrise.MergeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.RowsMerged != deltaRows {
			b.Fatalf("merged %d", rep.RowsMerged)
		}
	}
}

// BenchmarkFigure1WorkloadMixes measures end-to-end operation throughput
// of the three Figure 1 mixes against a live table.
func BenchmarkFigure1WorkloadMixes(b *testing.B) {
	for _, mix := range []hyrise.Mix{hyrise.OLTPMix, hyrise.OLAPMix, hyrise.TPCCMix} {
		b.Run(mix.Name, func(b *testing.B) {
			tb, err := hyrise.NewTable("t", hyrise.Schema{
				{Name: "k", Type: hyrise.Uint64},
				{Name: "v", Type: hyrise.Uint32},
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 50_000; i++ {
				tb.Insert([]any{uint64(i % 1000), uint32(i % 100)})
			}
			tb.RequestMerge(context.Background(), hyrise.MergeOptions{})
			drv, err := hyrise.NewDriver(tb, "k", mix, hyrise.NewUniformGenerator(1000, 5), 5)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := drv.Run(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCustomerSystemProfile measures the Figures 2-4 generator.
func BenchmarkCustomerSystemProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := workload.GenerateCustomerSystem(int64(i))
		if len(cs.Tables) != workload.TotalTables {
			b.Fatal("table count")
		}
	}
}

// shardCounts is the scaling axis of the sharded benchmarks: shards=1 is
// the inline single-partition path (what hyrise.NewTable builds) the
// multi-shard rows are compared against.
var shardCounts = []int{1, 2, 4, 8}

func newShardedBench(b *testing.B, shards int) *hyrise.Table {
	b.Helper()
	st, err := hyrise.NewShardedTable("b", hyrise.Schema{
		{Name: "k", Type: hyrise.Uint64},
		{Name: "v", Type: hyrise.Uint64},
	}, "k", shards)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkShardedInsert measures concurrent insert throughput as shards
// scale: writers route by key hash and contend only on their own shard's
// lock, so ops/s should grow with the shard count.
func BenchmarkShardedInsert(b *testing.B) {
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := newShardedBench(b, shards)
			var next atomic.Uint64
			var insertErr atomic.Value
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					k := next.Add(1)
					if _, err := st.Insert([]any{k, k}); err != nil {
						insertErr.Store(err)
						return
					}
				}
			})
			if err := insertErr.Load(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkShardedRequestMerge measures cross-shard merge wall time with one
// thread per shard, so the speedup comes purely from shard parallelism:
// shards=1 is a serial merge of the whole table, shards=8 is eight
// concurrent single-threaded merges of one-eighth-size partitions.  (With
// a full thread budget a 1-shard merge already parallelizes within
// columns — see BenchmarkTable2Scalability — so fixing the per-shard
// budget isolates the new axis.)
func BenchmarkShardedRequestMerge(b *testing.B) {
	const nm, nd = 400_000, 20_000
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			opts := hyrise.MergeOptions{Threads: shards}
			st := newShardedBench(b, shards)
			for i := 0; i < nm; i++ {
				if _, err := st.Insert([]any{uint64(i), uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := st.RequestMerge(context.Background(), opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				base := uint64(nm + i*nd)
				for j := 0; j < nd; j++ {
					if _, err := st.Insert([]any{base + uint64(j), 1}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				rep, err := st.RequestMerge(context.Background(), opts)
				if err != nil {
					b.Fatal(err)
				}
				if rep.RowsMerged != nd {
					b.Fatalf("merged %d want %d", rep.RowsMerged, nd)
				}
			}
		})
	}
}

// BenchmarkShardedLookup measures point-query latency on a merged table as
// shards scale: every lookup fans out to all shards in parallel, trading a
// little fan-out overhead for smaller per-shard dictionaries.
func BenchmarkShardedLookup(b *testing.B) {
	const rows = 1_000_000
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := newShardedBench(b, shards)
			for i := 0; i < rows; i++ {
				if _, err := st.Insert([]any{uint64(i), uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := st.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
				b.Fatal(err)
			}
			h, err := hyrise.ColumnOf[uint64](st, "k")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := h.Lookup(uint64(i % rows)); len(got) != 1 {
					b.Fatalf("lookup found %d rows", len(got))
				}
			}
		})
	}
}

// BenchmarkShardedWorkloadMix runs the paper's OLTP mix through the
// driver as shards scale.
func BenchmarkShardedWorkloadMix(b *testing.B) {
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := newShardedBench(b, shards)
			for i := 0; i < 50_000; i++ {
				st.Insert([]any{uint64(i % 1000), uint64(i)})
			}
			st.RequestMerge(context.Background(), hyrise.MergeOptions{})
			drv, err := hyrise.NewDriver(st, "k", hyrise.OLTPMix,
				hyrise.NewUniformGenerator(1000, 5), 5)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := drv.Run(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// snapshotScanShards is the scaling axis of the snapshot benchmarks.
var snapshotScanShards = []int{1, 4, 8}

// snapshotBenchStore builds a merged store with rows spread across shards
// plus a fresh delta tail, so scans cross main and delta partitions.
func snapshotBenchStore(b *testing.B, shards, rows int) *hyrise.Table {
	b.Helper()
	s := newShardedBench(b, shards)
	for i := 0; i < rows; i++ {
		if _, err := s.Insert([]any{uint64(i), uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		b.Fatal(err)
	}
	for i := rows; i < rows+rows/20; i++ {
		if _, err := s.Insert([]any{uint64(i), uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkSnapshotScan measures a full-column aggregate scan under a
// frozen snapshot view (capture + SumAt) as shards scale — the epoch-read
// path every consistent analytical query pays.
func BenchmarkSnapshotScan(b *testing.B) {
	const rows = 500_000
	for _, shards := range snapshotScanShards {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := snapshotBenchStore(b, shards, rows)
			h, err := hyrise.NumericColumnOf[uint64](s, "v")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view := s.Snapshot()
				if h.SumAt(view) == 0 {
					b.Fatal("empty sum")
				}
				view.Release()
			}
		})
	}
}

// BenchmarkSnapshotScanLatest is the locked-scan baseline: the same
// aggregate through the latest-read path (per-shard read locks, no view).
// Comparing against BenchmarkSnapshotScan isolates the epoch-filter cost.
func BenchmarkSnapshotScanLatest(b *testing.B) {
	const rows = 500_000
	for _, shards := range snapshotScanShards {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := snapshotBenchStore(b, shards, rows)
			h, err := hyrise.NumericColumnOf[uint64](s, "v")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if h.Sum() == 0 {
					b.Fatal("empty sum")
				}
			}
		})
	}
}

// BenchmarkSnapshotScanDuringMerge measures the snapshot scan while
// cross-shard merges continuously commit underneath: the view keeps the
// aggregate consistent and the scan only ever waits for the brief merge
// lock phases, not for whole merges.
func BenchmarkSnapshotScanDuringMerge(b *testing.B) {
	const rows = 200_000
	for _, shards := range snapshotScanShards {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := snapshotBenchStore(b, shards, rows)
			h, err := hyrise.NumericColumnOf[uint64](s, "v")
			if err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				i := rows * 2
				for {
					select {
					case <-stop:
						return
					default:
					}
					for j := 0; j < 1000; j++ {
						s.Insert([]any{uint64(i), uint64(i)})
						i++
					}
					s.RequestMerge(context.Background(), hyrise.MergeOptions{Threads: 2})
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view := s.Snapshot()
				if h.SumAt(view) == 0 {
					b.Fatal("empty sum")
				}
				view.Release()
			}
			b.StopTimer()
			close(stop)
			<-done
		})
	}
}

// BenchmarkSnapshotCapture measures the capture itself: one atomic
// fetch-add on the shared clock, independent of shard count and row count.
func BenchmarkSnapshotCapture(b *testing.B) {
	s := snapshotBenchStore(b, 8, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Snapshot()
	}
}

// BenchmarkDeltaInsert measures the write path (T_U): CSB+ indexed
// appends, the per-update cost in Equation 1.
func BenchmarkDeltaInsert(b *testing.B) {
	for _, unique := range []float64{0.01, 1.0} {
		b.Run(fmt.Sprintf("unique=%g", unique), func(b *testing.B) {
			gen := workload.NewUniformForUniqueFraction(b.N+1, unique, 1)
			d := delta.New[uint64]()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Insert(gen.Next())
			}
		})
	}
}
