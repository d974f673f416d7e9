package table

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

var pointSink []int

// BenchmarkPointRead measures the point reads of the served OLTP mix on one
// partition: an indexed Lookup of one key and an indexed Range over 100
// keys on a 200k-row merged main plus a 2k-row delta, the planning of the
// one read entry included.
func BenchmarkPointRead(b *testing.B) {
	const mainRows, deltaRows, span = 200_000, 2_000, 100
	tb, err := New("orders", Schema{
		{Name: "order_id", Type: Uint64},
		{Name: "qty", Type: Uint32},
	})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]any, mainRows)
	for i := range rows {
		rows[i] = []any{uint64(i), uint32(i % 50)}
	}
	if _, err := tb.InsertRows(rows); err != nil {
		b.Fatal(err)
	}
	if err := tb.CreateIndex("order_id"); err != nil {
		b.Fatal(err)
	}
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		b.Fatal(err)
	}
	for i := mainRows; i < mainRows+deltaRows; i++ {
		if _, err := tb.Insert([]any{uint64(i), uint32(i % 50)}); err != nil {
			b.Fatal(err)
		}
	}
	h, err := colOf[uint64](tb, "order_id")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pointSink = h.Lookup(uint64(rng.Intn(mainRows + deltaRows)))
		}
	})
	b.Run("range", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := uint64(rng.Intn(mainRows + deltaRows - span))
			pointSink = h.Range(lo, lo+span-1)
		}
	})
}

// BenchmarkMergeLockPhases measures the two write-locked phases of a
// garbage-collecting merge (Report.Freeze and Report.Commit) on a main of
// 1M rows and 12 uint64 columns of 4096 values each (so the columns stay
// small; neither phase reads them): before each merge, 1 % of the main's rows
// are updated, so 1 % of the main is dead and as many new versions wait in
// the delta, and the merge reclaims every dead version.  It uses only the
// exported table API.  Each op is one merge; freeze-ns and commit-ns are
// per merge.
func BenchmarkMergeLockPhases(b *testing.B) {
	const n, ncols, batch, card = 1 << 20, 12, 1 << 14, 4096
	schema := make(Schema, ncols)
	for c := range schema {
		schema[c] = ColumnDef{Name: fmt.Sprintf("c%d", c), Type: Uint64}
	}
	tb, err := New("wide", schema)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, 0, n)
	rows := make([][]any, batch)
	for base := 0; base < n; base += batch {
		for i := range rows {
			row := make([]any, ncols)
			for c := range row {
				row[c] = uint64(base+i) % card * uint64(c+1)
			}
			rows[i] = row
		}
		got, err := tb.InsertRows(rows)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, got...)
		// Merging as the rows arrive keeps the uncompressed delta small.
		if (base+batch)%(n/32) == 0 {
			if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	var freeze, commit time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for range n / 100 {
			j := rng.Intn(len(ids))
			id, err := tb.Update(ids[j], map[string]any{"c0": uint64(rng.Intn(card))})
			if err != nil {
				b.Fatal(err)
			}
			ids[j] = id
		}
		b.StartTimer()
		rep, err := tb.Merge(context.Background(), MergeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.RowsReclaimed == 0 {
			b.Fatal("the merge reclaimed nothing")
		}
		freeze += rep.Freeze
		commit += rep.Commit
	}
	b.ReportMetric(float64(freeze.Nanoseconds())/float64(b.N), "freeze-ns/op")
	b.ReportMetric(float64(commit.Nanoseconds())/float64(b.N), "commit-ns/op")
}
