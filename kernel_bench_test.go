// BenchmarkScanKernel and BenchmarkParallelMerge are the kernel-level
// perf artifacts beside the end-to-end harness in benchmark/.
//
// BenchmarkScanKernel runs every main-partition scan kernel on a 1M-code
// column at the packed widths olap_scan's columns have (status 3, qty 7,
// product 10, customer 16, amount 17 bits) plus 8, 19 and 32, which
// together cover windows of whole words and windows that straddle two: a
// sparse equality needle (op=equal) and a ~10% range (op=range), each
// against the scalar per-row bitpack.Vector.Get loop the kernels exist to
// avoid; a count of the needle fused with visibility (op=count); and the
// fused sum and min/max over the visible rows (op=sum, op=minmax), with
// one row in 16 invalidated.  Each sub-benchmark reports ns/row.
//
// BenchmarkParallelMerge measures the range-partitioned garbage-collecting
// merge (core.MergeColumnDrop) on one oversized column — the single-shard
// compaction bottleneck — with 1/4/8 worker threads and a ~30% drop mask,
// plus a store-level RequestMerge over 1/4/8 shards with intra-column threads.
// Every sub-benchmark reports a "cpus" metric (GOMAXPROCS): thread counts
// above it cannot improve wall-clock time, so on a single-core runner the
// bar for threads=4/8 is parity with threads=1 (no parallel overhead);
// the disjoint output partitioning turns that into near-linear scaling
// once cores are available.
package hyrise_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hyrise"
	"hyrise/internal/bitpack"
	"hyrise/internal/colstore"
	"hyrise/internal/core"
	"hyrise/internal/delta"
	"hyrise/internal/kernel"
)

var benchSink int

func BenchmarkScanKernel(b *testing.B) {
	const n = 1 << 20
	const e = 5 // every row visible but each 16th, invalidated at epoch 2
	begin, end := make([]uint64, n), make([]uint64, n)
	for i := range begin {
		begin[i] = 1
		if i%16 == 0 {
			end[i] = 2
		}
	}
	for _, bits := range []uint{3, 7, 8, 10, 16, 17, 19, 32} {
		rng := rand.New(rand.NewSource(int64(bits)))
		// Codes index a sorted dictionary of card entries; at 32 bits a
		// 2^32-entry dictionary will not fit, so codes stay below 2^20.
		card := uint64(1) << min(bits, 20)
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = rng.Uint64() % card
		}
		dict := make([]uint64, card)
		for i := range dict {
			dict[i] = uint64(i)*7 + 3
		}
		needle := codes[n/2] // ~n/card expected matches
		lo, hi := card/2, card/2+card/10+1
		v := bitpack.FromSlice(bits, codes)

		run := func(op, impl string, fn func()) {
			b.Run(fmt.Sprintf("bits=%d/op=%s/impl=%s", bits, op, impl), func(b *testing.B) {
				b.SetBytes(n)
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
		sel := make([]int32, 0, n)
		run("equal", "scalar", func() {
			cnt := 0
			for j := 0; j < n; j++ {
				if v.Get(j) == needle {
					cnt++
				}
			}
			benchSink = cnt
		})
		run("equal", "kernel", func() {
			sel = kernel.MatchEqual(v, needle, sel[:0])
			benchSink = len(sel)
		})
		run("range", "scalar", func() {
			cnt := 0
			for j := 0; j < n; j++ {
				if c := v.Get(j); c >= lo && c < hi {
					cnt++
				}
			}
			benchSink = cnt
		})
		run("range", "kernel", func() {
			sel = kernel.MatchRange(v, lo, hi, sel[:0])
			benchSink = len(sel)
		})
		run("count", "kernel", func() {
			benchSink = kernel.CountEqual(v, needle, begin, end, e)
		})
		run("sum", "kernel", func() {
			benchSink = int(kernel.SumVisible(v, dict, begin, end, e))
		})
		run("minmax", "kernel", func() {
			mn, mx, _ := kernel.MinMaxVisible(v, begin, end, e)
			benchSink = int(mn + mx)
		})
	}
}

func BenchmarkParallelMerge(b *testing.B) {
	// Core level: one column far beyond any shard split, GC drop mask over
	// ~30% of the versions, thread counts 1/4/8.  The dictionary
	// cardinalities put the merged column at 8, 16 and ~19 packed bits
	// (a 32-bit code width would need a >2^31-entry dictionary).
	const n = 1 << 19
	rng := rand.New(rand.NewSource(17))
	for _, card := range []uint64{1 << 8, 1 << 16, 1 << 19} {
		mainVals := make([]uint64, n)
		for i := range mainVals {
			mainVals[i] = rng.Uint64() % card
		}
		m := colstore.FromValues(mainVals)
		d := delta.New[uint64]()
		for i := 0; i < n/8; i++ {
			d.Insert(rng.Uint64() % card)
		}
		mask := make([]bool, n+n/8)
		for i := range mask {
			mask[i] = rng.Float64() < 0.3
		}
		drop := core.NewDrop(mask, n+n/8)
		for _, nt := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("core/dict=%d/threads=%d", card, nt), func(b *testing.B) {
				b.SetBytes(n + n/8)
				var st core.Stats
				for i := 0; i < b.N; i++ {
					_, st = core.MergeColumnDrop(m, d, drop, core.Options{Threads: nt})
				}
				b.ReportMetric(float64(st.BitsAfter), "bits")
				b.ReportMetric(float64(st.Dropped), "dropped")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cpus")
			})
		}
	}

	// Store level: the same update-then-compact cycle across 1/4/8 shards
	// with intra-column parallel merges on every shard.
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("store/shards=%d/threads=4", shards), func(b *testing.B) {
			const rows = 40_000
			s, err := hyrise.NewShardedTable("pm", hyrise.Schema{
				{Name: "k", Type: hyrise.Uint64},
				{Name: "v", Type: hyrise.Uint64},
			}, "k", shards)
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]int, rows)
			for i := range ids {
				if ids[i], err = s.Insert([]any{uint64(i), uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			// Four threads per partition over two columns: intra-column.
			opts := hyrise.MergeOptions{Threads: 4 * shards}
			if _, err := s.RequestMerge(context.Background(), opts); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cpus")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < rows; j += 2 {
					nid, err := s.Update(ids[j], map[string]any{"v": uint64(i*rows + j)})
					if err != nil {
						b.Fatal(err)
					}
					ids[j] = nid
				}
				b.StartTimer()
				if _, err := s.RequestMerge(context.Background(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
