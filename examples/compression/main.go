// Compression demonstrates why enterprise data suits dictionary encoding
// (paper §2, Figure 4): columns drawn from the published inventory-
// management and financial-accounting distinct-value profiles are loaded,
// merged, and their compressed footprint compared with raw storage.  It
// also shows the bit-width arithmetic of §5: E_C = ceil(log2 |dict|) and
// its growth across a merge that introduces new values.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"hyrise"
)

const rowsPerColumn = 400_000

func main() {
	rng := rand.New(rand.NewSource(11))

	fmt.Println("Figure 4 profiles: distinct values per column by domain")
	fmt.Println()
	for _, profile := range []struct {
		name    string
		domains []int // sampled per the published bucket shares
	}{
		{"Inventory Management", sampleDomains(rng, 0.78, 0.09)},
		{"Financial Accounting", sampleDomains(rng, 0.64, 0.12)},
	} {
		schema := hyrise.Schema{}
		for i := range profile.domains {
			schema = append(schema, hyrise.ColumnDef{
				Name: fmt.Sprintf("col%02d", i), Type: hyrise.Uint64,
			})
		}
		t, err := hyrise.NewTable(profile.name, schema)
		if err != nil {
			log.Fatal(err)
		}
		gens := make([]hyrise.Generator, len(profile.domains))
		for i, d := range profile.domains {
			gens[i] = hyrise.NewUniformGenerator(uint64(d), int64(i))
		}
		row := make([]any, len(schema))
		for r := 0; r < rowsPerColumn; r++ {
			for c := range row {
				row[c] = gens[c].Next()
			}
			if _, err := t.Insert(row); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := t.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
			log.Fatal(err)
		}

		st := t.StoreStats().Partitions[0]
		raw := rowsPerColumn * 8 * len(schema)
		fmt.Printf("%s: %d columns x %d rows\n", profile.name, len(schema), rowsPerColumn)
		fmt.Printf("  raw 8-byte storage: %6.1f MB\n", float64(raw)/1e6)
		fmt.Printf("  dictionary-compressed: %6.1f MB (%.1fx smaller)\n",
			float64(st.SizeBytes)/1e6, float64(raw)/float64(st.SizeBytes))
		for _, cs := range st.Columns[:3] {
			fmt.Printf("    %s: %d distinct -> %d bits/tuple (raw 64)\n",
				cs.Def.Name, cs.UniqueMain, cs.Bits)
		}
		fmt.Println()
	}

	// Bit-width growth across a merge (paper Figure 5: 3 bits -> 4 bits).
	t, _ := hyrise.NewTable("widths", hyrise.Schema{{Name: "v", Type: hyrise.Uint64}})
	for i := 0; i < 1000; i++ {
		t.Insert([]any{uint64(i % 6)}) // 6 distinct -> 3 bits
	}
	t.RequestMerge(context.Background(), hyrise.MergeOptions{})
	before := t.StoreStats().Partitions[0].Columns[0].Bits
	for i := 0; i < 100; i++ {
		t.Insert([]any{uint64(100 + i%3)}) // 3 new values -> 9 distinct
	}
	rep, _ := t.RequestMerge(context.Background(), hyrise.MergeOptions{})
	fmt.Printf("code-width growth: dictionary %d -> %d entries, %d -> %d bits per tuple\n",
		rep.Columns[0].UniqueMain, rep.Columns[0].UniqueMerged, before, rep.Columns[0].BitsAfter)
	fmt.Println("(matches the paper's Figure 5 example: ceil(log2 6)=3, ceil(log2 9)=4)")
}

// sampleDomains draws 12 column domain sizes: smallShare of columns from
// 1-32 distinct values, midShare from 33-1023, the rest from 1024-100k.
func sampleDomains(rng *rand.Rand, smallShare, midShare float64) []int {
	out := make([]int, 12)
	for i := range out {
		x := rng.Float64()
		switch {
		case x < smallShare:
			out[i] = 1 + rng.Intn(32)
		case x < smallShare+midShare:
			out[i] = 33 + rng.Intn(991)
		default:
			out[i] = 1024 + rng.Intn(100_000)
		}
	}
	return out
}
