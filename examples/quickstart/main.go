// Quickstart: create a table, write, query, merge, inspect — then grow it
// from one shard to four while it stays readable.
package main

import (
	"context"
	"fmt"
	"log"

	"hyrise"
)

func main() {
	s, err := hyrise.NewTable("sales", hyrise.Schema{
		{Name: "order_id", Type: hyrise.Uint64},
		{Name: "qty", Type: hyrise.Uint32},
		{Name: "product", Type: hyrise.String},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Writes append to the delta partitions (paper §3).  InsertRows
	// batches validation and locking, and groups rows per destination
	// shard when there are several.
	products := []string{"widget", "gadget", "sprocket"}
	batch := make([][]any, 0, 10000)
	for i := 0; i < 10000; i++ {
		batch = append(batch, []any{uint64(i), uint32(i % 7), products[i%3]})
	}
	ids, err := s.InsertRows(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after inserts:  main=%d rows, delta=%d rows\n", s.MainRows(), s.DeltaRows())

	// Updates are insert-only: a new version is appended, the old one
	// invalidated, and the history stays queryable.
	newRow, err := s.Update(ids[42], map[string]any{"qty": uint32(99)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update: row %d -> new version at row %d (old version still stored, now invalid)\n",
		ids[42], newRow)
	if err := s.Delete(ids[7]); err != nil {
		log.Fatal(err)
	}

	// Typed handles span main and delta transparently, and fan out across
	// shards in parallel when there are several.
	orders, err := hyrise.ColumnOf[uint64](s, "order_id")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup order 42 -> rows %v (the new version)\n", orders.Lookup(42))
	fmt.Printf("range [100,104] -> %d rows\n", len(orders.Range(100, 104)))

	qty, err := hyrise.NumericColumnOf[uint32](s, "qty")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sum(qty) = %d\n", qty.Sum())

	// Conjunctive multi-column queries, column-at-a-time.
	res, err := hyrise.Query(s, []hyrise.Filter{
		{Column: "product", Op: hyrise.FilterEq, Value: "gadget"},
		{Column: "order_id", Op: hyrise.FilterBetween, Value: 0, Hi: 299},
	}, []string{"order_id"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query product=gadget AND order_id in [0,299] -> %d rows\n", res.Count())

	// The merge process folds the deltas into the compressed mains online
	// and commits atomically (paper §5-6); several shards merge in
	// parallel.
	rep, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merge: %d delta rows folded, now main=%d rows in %s using %d threads\n",
		rep.RowsMerged, rep.MainRowsAfter, rep.Wall, rep.Threads)

	// Same answers after the merge.
	fmt.Printf("post-merge lookup order 42 -> rows %v\n", orders.Lookup(42))
	fmt.Printf("post-merge sum(qty) = %d\n", qty.Sum())

	st := s.StoreStats()
	fmt.Printf("storage: %d bytes total for %d rows (%d valid) in %d partition(s)\n",
		st.SizeBytes, st.Rows, st.ValidRows, len(st.Partitions))

	// Any table can be resharded online: rows migrate into four fresh
	// partitions keyed by order_id while reads and writes keep flowing.
	// Migrated rows get new ids, so resolve them by key; handles read the
	// current partitions, so the ones resolved above still see every row.
	rr, err := s.Reshard(context.Background(), 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reshard %d -> %d shards: %d rows migrated in %s; order 42 -> rows %v\n",
		rr.From, rr.To, rr.RowsMigrated, rr.Wall, orders.Lookup(42))
}
