// Command mergebench regenerates the paper's artifacts from the
// internal/bench experiment registry: the §2 enterprise data analyses
// (Figures 1-4) and the evaluation (Figures 7-9, Table 2, the §2
// merge-duration estimate and the §7.4 model comparison) at a configurable
// scale.
//
// Usage:
//
//	mergebench -list
//	mergebench -exp fig1,fig2,fig3,fig4   # the §2 data profiles
//	mergebench -exp fig7 -scale 0.05
//	mergebench -exp all -scale 0.01 -threads 8
//
// Scale 1.0 reproduces the paper's tuple counts (NM up to 100M per column
// for Figures 7/8; Figure 9 sweeps to 1B, which needs ~16 GB per column —
// reduce the scale accordingly).  Cycle figures use -hz (default 3.3 GHz,
// the paper's clock) so cycles/tuple are comparable across machines.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hyrise/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiments and exit")
		factor  = flag.Float64("scale", 0.05, "tuple-count scale relative to the paper (1.0 = paper)")
		threads = flag.Int("threads", 0, "worker goroutines (0 = GOMAXPROCS)")
		hz      = flag.Float64("hz", 3.3e9, "clock rate for cycle conversion")
		nc      = flag.Int("nc", 300, "assumed column count for update-rate figures")
		llc     = flag.Int("llc", 0, "last-level cache bytes (0 = detect)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-10s %-22s %s\n", e.ID, e.Title, e.Description)
		}
		return
	}

	scale := bench.Scale{
		Factor:   *factor,
		Threads:  *threads,
		HZ:       *hz,
		NC:       *nc,
		LLCBytes: *llc,
	}.Defaults()

	var ids []string
	if *exp == "all" {
		for _, e := range bench.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	for i, id := range ids {
		e, ok := bench.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "mergebench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s ===\n", e.Title, e.ID)
		start := time.Now()
		if err := e.Run(os.Stdout, scale); err != nil {
			fmt.Fprintf(os.Stderr, "mergebench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %s)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
