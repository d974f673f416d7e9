package bench

import (
	"fmt"
	"io"
	"time"

	"hyrise/internal/colstore"
	"hyrise/internal/delta"
	"hyrise/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "sec4readcost",
		Title: "§4 Read-cost trade-off",
		Description: "Quantifies the §4 delta-sizing dilemma: delta tuples cost several times " +
			"the memory traffic of bit-packed main tuples, so scans slow down as the delta " +
			"grows once reads are bandwidth-bound — the motivation for frequent (hence fast) merges.",
		Run: runSec4ReadCost,
	})
}

// runSec4ReadCost measures per-tuple scan cost of the compressed main
// partition vs the uncompressed delta, the per-tuple memory traffic of
// each, and the projected bandwidth-bound scan slowdown at growing delta
// fractions (§4 (i)/(ii)).
//
// Two regimes exist and both are reported: when the working set is
// cache-resident, main-partition scans pay bit-unpacking CPU and the raw
// delta can even be cheaper per tuple; once scans are bandwidth-bound (the
// paper's 100M+-row tables), cost per tuple is proportional to bytes per
// tuple, where the uncompressed delta loses by the compression factor.
func runSec4ReadCost(w io.Writer, s Scale) error {
	s = s.Defaults()
	nm := s.N(20_000_000)
	nd := nm / 10
	gen := workload.NewUniformForUniqueFraction(nm, 0.10, 5)
	m := colstore.FromValues(workload.Fill(gen, nm))
	d := delta.New[uint64]()
	for i := 0; i < nd; i++ {
		d.Insert(gen.Next())
	}

	fmt.Fprintf(w, "§4: read cost, main vs delta (NM=%s, ND=%s, 10%% unique, Ej=8B)\n\n",
		human(nm), human(nd))

	// Measured per-tuple scan cost of each partition.
	scanMain := func() uint64 {
		var sum uint64
		var buf [1024]uint64
		dict, codes := m.Dict(), m.Codes()
		for from := 0; from < m.Len(); from += len(buf) {
			for _, c := range codes.DecodeRange(from, min(from+len(buf), m.Len()), buf[:]) {
				sum += dict.At(int(c))
			}
		}
		return sum
	}
	scanDelta := func() uint64 {
		var sum uint64
		for _, v := range d.Values() {
			sum += v
		}
		return sum
	}
	scanMain()
	t0 := time.Now()
	sink := scanMain()
	mainCPT := time.Since(t0).Seconds() * s.HZ / float64(nm)
	scanDelta()
	t0 = time.Now()
	sink += scanDelta()
	deltaCPT := time.Since(t0).Seconds() * s.HZ / float64(nd)
	_ = sink

	mainBytes := float64(m.Codes().SizeBytes()) / float64(nm)
	deltaBytes := float64(d.SizeBytes()) / float64(nd)

	tw := newTable(w, 22, 14, 16)
	tw.row("partition", "scan cpt", "bytes/tuple")
	tw.rule()
	tw.row("main (bit-packed)", f2(mainCPT), f2(mainBytes))
	tw.row("delta (uncompressed)", f2(deltaCPT), f2(deltaBytes))
	tw.rule()
	fmt.Fprintln(w)

	// Projected bandwidth-bound slowdown by delta fraction: scan traffic
	// relative to a fully merged table of the same cardinality.
	fmt.Fprintln(w, "bandwidth-bound scan slowdown vs fully merged (traffic model):")
	tw2 := newTable(w, 12, 14)
	tw2.row("delta/main", "slowdown")
	tw2.rule()
	for _, frac := range []float64{0.01, 0.02, 0.05, 0.10, 0.20} {
		ndf := frac * float64(nm)
		mixed := mainBytes*float64(nm) + deltaBytes*ndf
		merged := mainBytes * (float64(nm) + ndf)
		tw2.row(fmt.Sprintf("%.0f%%", frac*100), f2(mixed/merged)+"x")
	}
	tw2.rule()
	fmt.Fprintf(w, "\nmeasured regime on this run: ")
	if deltaCPT < mainCPT {
		fmt.Fprintln(w, "cache/compute-bound — unpacking codes costs more CPU than")
		fmt.Fprintln(w, "reading raw values, so the delta is not yet the bottleneck at this scale;")
	} else {
		fmt.Fprintln(w, "bandwidth-bound — delta tuples already cost more than main tuples;")
	}
	fmt.Fprintf(w, "at the paper's scale scans are bandwidth-bound and the uncompressed delta costs\n"+
		"%.1fx the traffic per tuple (incl. its CSB+ index), which is §4's reason to merge often\n",
		deltaBytes/mainBytes)
	return tw2.err
}
