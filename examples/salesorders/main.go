// Salesorders reproduces the paper's §2 motivating scenario at laptop
// scale: a wide VBAP-style sales-order table receives a month of new
// orders in its delta partitions, and the merge process folds them into
// the read-optimized mains — first with the naive algorithm the paper
// measured at ~1,000 updates/second, then with the optimized one.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hyrise"
)

const (
	columns   = 40      // paper: 230 (reduced to keep the example snappy)
	baseRows  = 200_000 // paper: 33M rows of 3 years of sales orders
	monthRows = 4_500   // paper: 750K rows of one month
)

func main() {
	schema := hyrise.Schema{{Name: "order_id", Type: hyrise.Uint64}}
	for i := 1; i < columns; i++ {
		schema = append(schema, hyrise.ColumnDef{
			Name: fmt.Sprintf("attr%02d", i), Type: hyrise.Uint64,
		})
	}
	t, err := hyrise.NewTable("vbap", schema)
	if err != nil {
		log.Fatal(err)
	}

	// Enterprise columns draw from small domains (paper Figure 4); order
	// ids are unique.  Rows are staged in batches and appended through
	// InsertRows, which validates the batch up front and takes the table
	// lock once.
	ids := hyrise.NewUniqueGenerator(1)
	attrs := hyrise.NewUniformGenerator(512, 2)
	insertRows := func(n int) {
		const batchSize = 10_000
		for r := 0; r < n; r += batchSize {
			m := batchSize
			if r+m > n {
				m = n - r
			}
			batch := make([][]any, m)
			for b := range batch {
				row := make([]any, columns)
				row[0] = ids.Next()
				for c := 1; c < columns; c++ {
					row[c] = attrs.Next()
				}
				batch[b] = row
			}
			if _, err := t.InsertRows(batch); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Printf("loading %d rows x %d columns of historical orders...\n", baseRows, columns)
	start := time.Now()
	insertRows(baseRows)
	if _, err := t.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded and compressed in %s; main storage %d MB\n\n",
		time.Since(start).Round(time.Millisecond), t.StoreStats().SizeBytes>>20)

	// One month of new orders lands in the delta partitions.
	fmt.Printf("inserting one month of %d new orders...\n", monthRows)
	insertRows(monthRows)
	fmt.Printf("delta now %.2f%% of main\n\n", 100*float64(t.DeltaRows())/float64(t.MainRows()))

	// Naive merge (the paper's ~1,000 updates/second baseline).
	repNaive, err := t.RequestMerge(context.Background(), hyrise.MergeOptions{Algorithm: hyrise.Naive})
	if err != nil {
		log.Fatal(err)
	}
	naiveRate := float64(repNaive.RowsMerged) / repNaive.Wall.Seconds()
	fmt.Printf("naive merge:     %8s  -> %7.0f merged updates/second\n", repNaive.Wall.Round(time.Millisecond), naiveRate)

	// Refill an identical month and merge optimized.
	insertRows(monthRows)
	repOpt, err := t.RequestMerge(context.Background(), hyrise.MergeOptions{Algorithm: hyrise.Optimized})
	if err != nil {
		log.Fatal(err)
	}
	optRate := float64(repOpt.RowsMerged) / repOpt.Wall.Seconds()
	fmt.Printf("optimized merge: %8s  -> %7.0f merged updates/second (%.1fx faster)\n",
		repOpt.Wall.Round(time.Millisecond), optRate,
		repNaive.Wall.Seconds()/repOpt.Wall.Seconds())

	fmt.Printf("\npaper context: the naive merge sustained ~1,000 updates/second on the real\n" +
		"33M-row VBAP table (12 minutes per month); the optimized algorithm reduced the\n" +
		"merge overhead ~30x versus unoptimized serial code (§2, §7)\n")
}
