package table

import (
	"context"
	"math/rand"
	"testing"
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
