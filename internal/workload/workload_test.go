package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestMixesValidate checks each built-in mix is a distribution: no
// negative weight and weights summing to 1, which Mix.Sample relies on.
func TestMixesValidate(t *testing.T) {
	for _, m := range Mixes() {
		sum := 0.0
		for _, w := range m.Weights {
			if w < 0 {
				t.Errorf("%s: negative weight %f", m.Name, w)
			}
			sum += w
		}
		if math.Abs(sum-1) > 0.001 {
			t.Errorf("%s: weights sum to %f", m.Name, sum)
		}
	}
}

// TestFigure1Aggregates checks the mixes reproduce the paper's headline
// read/write shares: OLTP >80% reads with ~17% writes, OLAP >90% reads
// with ~7% writes, TPC-C 46% writes.
func TestFigure1Aggregates(t *testing.T) {
	if w := OLTPMix.WriteRatio(); math.Abs(w-0.17) > 0.005 {
		t.Errorf("OLTP write ratio %.3f want ~0.17", w)
	}
	if r := OLTPMix.ReadRatio(); r < 0.80 {
		t.Errorf("OLTP read ratio %.3f want >0.80", r)
	}
	if w := OLAPMix.WriteRatio(); math.Abs(w-0.07) > 0.005 {
		t.Errorf("OLAP write ratio %.3f want ~0.07", w)
	}
	if r := OLAPMix.ReadRatio(); r < 0.90 {
		t.Errorf("OLAP read ratio %.3f want >0.90", r)
	}
	if w := TPCCMix.WriteRatio(); math.Abs(w-0.46) > 0.005 {
		t.Errorf("TPC-C write ratio %.3f want 0.46", w)
	}
}

func TestMixSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	var counts [numQueryKinds]int
	for i := 0; i < n; i++ {
		counts[OLTPMix.Sample(rng)]++
	}
	for k := QueryKind(0); k < numQueryKinds; k++ {
		got := float64(counts[k]) / n
		if math.Abs(got-OLTPMix.Weights[k]) > 0.01 {
			t.Errorf("%v: sampled %.3f want %.3f", k, got, OLTPMix.Weights[k])
		}
	}
}

func TestUniformGen(t *testing.T) {
	g := NewUniform(100, 7)
	vals := Fill(g, 1000)
	for _, v := range vals {
		if v >= 100 {
			t.Fatalf("value %d out of domain", v)
		}
	}
	g.Reset()
	again := Fill(g, 1000)
	for i := range vals {
		if vals[i] != again[i] {
			t.Fatal("Reset not reproducible")
		}
	}
}

func TestUniqueGenNeverRepeats(t *testing.T) {
	g := NewUnique(3)
	seen := map[uint64]bool{}
	for i := 0; i < 200000; i++ {
		v := g.Next()
		if seen[v] {
			t.Fatalf("duplicate at %d", i)
		}
		seen[v] = true
	}
	g.Reset()
	if _, dup := seen[g.Next()], false; !dup {
		_ = dup
	}
}

func TestUniformForUniqueFraction(t *testing.T) {
	const n = 100000
	for _, frac := range []float64{0.01, 0.1, 0.5} {
		g := NewUniformForUniqueFraction(n, frac, 5)
		vals := Fill(g, n)
		distinct := map[uint64]bool{}
		for _, v := range vals {
			distinct[v] = true
		}
		got := float64(len(distinct)) / n
		if math.Abs(got-frac)/frac > 0.1 {
			t.Errorf("frac %.2f: got %.4f distinct", frac, got)
		}
	}
	// frac=1 must produce a UniqueGen.
	g := NewUniformForUniqueFraction(100, 1.0, 5)
	vals := Fill(g, 100)
	distinct := map[uint64]bool{}
	for _, v := range vals {
		distinct[v] = true
	}
	if len(distinct) != 100 {
		t.Fatalf("frac=1: %d distinct of 100", len(distinct))
	}
}

func TestZipfGen(t *testing.T) {
	g := NewZipf(1000, 1.5, 9)
	vals := Fill(g, 10000)
	var zeros int
	for _, v := range vals {
		if v >= 1000 {
			t.Fatalf("out of domain: %d", v)
		}
		if v == 0 {
			zeros++
		}
	}
	// Zipf: rank 0 dominates.
	if zeros < 1000 {
		t.Fatalf("zipf skew missing: %d zeros of 10000", zeros)
	}
	g.Reset()
	if g.Next() != vals[0] {
		t.Fatal("Reset not reproducible")
	}
}

func TestFixedString(t *testing.T) {
	a, b := FixedString(5), FixedString(300)
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	if !(a < b) {
		t.Fatal("order not preserved")
	}
}

func TestFigure2BucketsSum(t *testing.T) {
	total := 0
	for _, b := range Figure2Buckets() {
		total += b.Count
	}
	if total != TotalTables {
		t.Fatalf("bucket sum %d want %d (paper: 73,979 tables)", total, TotalTables)
	}
}

func TestGenerateCustomerSystem(t *testing.T) {
	cs := GenerateCustomerSystem(1)
	if len(cs.Tables) != TotalTables {
		t.Fatalf("tables %d want %d", len(cs.Tables), TotalTables)
	}
	// Histogram must reproduce Figure 2 exactly.
	hist := cs.Histogram()
	for i, b := range Figure2Buckets() {
		if hist[i].Count != b.Count {
			t.Errorf("bucket %s: %d want %d", b.Label, hist[i].Count, b.Count)
		}
	}
	// Figure 3 marginals for the 144 largest tables.
	top := cs.Largest(144)
	if len(top) != 144 {
		t.Fatalf("top %d", len(top))
	}
	var rowSum, colSum float64
	var maxRows int64
	for _, tp := range top {
		if tp.Rows < 10_000_000 {
			t.Fatalf("top-144 table with %d rows (<10M)", tp.Rows)
		}
		if tp.Columns < 2 || tp.Columns > 399 {
			t.Fatalf("columns %d out of [2,399]", tp.Columns)
		}
		rowSum += float64(tp.Rows)
		colSum += float64(tp.Columns)
		if tp.Rows > maxRows {
			maxRows = tp.Rows
		}
	}
	meanRows := rowSum / 144
	if meanRows < 40e6 || meanRows > 100e6 {
		t.Errorf("mean rows %.1fM want ~65M", meanRows/1e6)
	}
	meanCols := colSum / 144
	if meanCols < 50 || meanCols > 95 {
		t.Errorf("mean columns %.1f want ~70", meanCols)
	}
	if maxRows > 1_600_000_000 {
		t.Errorf("max rows %d exceeds 1.6B", maxRows)
	}
}

func TestFigure4Profiles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range Figure4Profiles() {
		sum := 0.0
		for _, b := range p.Buckets {
			sum += b.Share
		}
		if math.Abs(sum-1.0) > 1e-9 {
			t.Errorf("%s shares sum %.3f", p.Name, sum)
		}
		// Sampling respects the bucket shares.
		const n = 50000
		small := 0
		for i := 0; i < n; i++ {
			if d := p.SampleColumnDomain(rng, 1_000_000); d <= 32 {
				small++
			}
		}
		got := float64(small) / n
		if math.Abs(got-p.Buckets[0].Share) > 0.02 {
			t.Errorf("%s: small-domain share %.3f want %.2f", p.Name, got, p.Buckets[0].Share)
		}
	}
}
