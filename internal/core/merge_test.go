package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hyrise/internal/colstore"
	"hyrise/internal/delta"
)

func buildColumn(mainVals, deltaVals []uint64) (*colstore.Main[uint64], *delta.Partition[uint64]) {
	m := colstore.FromValues(mainVals)
	d := delta.New[uint64]()
	for _, v := range deltaVals {
		d.Insert(v)
	}
	return m, d
}

// checkMerged verifies the merged partition equals the concatenation of the
// input main and delta values and satisfies all structural invariants.
func checkMerged(t *testing.T, out *colstore.Main[uint64], mainVals, deltaVals []uint64, st Stats) {
	t.Helper()
	want := append(append([]uint64{}, mainVals...), deltaVals...)
	if out.Len() != len(want) {
		t.Fatalf("merged len %d want %d", out.Len(), len(want))
	}
	for i, v := range want {
		if got := out.At(i); got != v {
			t.Fatalf("merged[%d]=%d want %d", i, got, v)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dictionary is exactly the distinct set.
	distinct := map[uint64]bool{}
	for _, v := range want {
		distinct[v] = true
	}
	if out.Dict().Len() != len(distinct) {
		t.Fatalf("dict len %d want %d", out.Dict().Len(), len(distinct))
	}
	if st.UniqueMerged != len(distinct) {
		t.Fatalf("stats UniqueMerged=%d want %d", st.UniqueMerged, len(distinct))
	}
	if st.NM != len(mainVals) || st.ND != len(deltaVals) {
		t.Fatalf("stats NM/ND = %d/%d want %d/%d", st.NM, st.ND, len(mainVals), len(deltaVals))
	}
}

// TestPaperFigure5 reproduces the worked example of Figures 5 and 6
// end-to-end: the merged partition's codes must match the paper, including
// the code-width growth from 3 to 4 bits.
func TestPaperFigure5(t *testing.T) {
	deltaVals := []string{"bravo", "charlie", "charlie", "golf", "young"}
	// The main partition's dictionary in Figure 5 contains values that do
	// not occur in the figure's four example tuples (apple, inbox, ...);
	// prepend one tuple per dictionary entry so the dictionary matches the
	// figure exactly, then the figure's tuples hotel,delta,frank,delta.
	full := []string{"apple", "charlie", "delta", "frank", "hotel", "inbox",
		"hotel", "delta", "frank", "delta"}
	mFull := colstore.FromValues(full)
	if mFull.Bits() != 3 {
		t.Fatalf("main bits=%d want 3", mFull.Bits())
	}
	d := delta.New[string]()
	for _, v := range deltaVals {
		d.Insert(v)
	}
	for _, alg := range []Algorithm{Optimized, Naive} {
		out, st := MergeColumn(mFull, d, Options{Algorithm: alg, Threads: 1})
		if err := out.Validate(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if st.UniqueMerged != 9 {
			t.Fatalf("%v: merged dict %d want 9", alg, st.UniqueMerged)
		}
		if st.BitsAfter != 4 {
			t.Fatalf("%v: bits after %d want 4 (ceil(log2 9))", alg, st.BitsAfter)
		}
		// Paper Figure 6 merged codes for the example tuples
		// hotel,delta,frank,delta: 6,3,4,3; delta rows bravo..young: 1,2,2,5,8.
		wantTail := []uint64{6, 3, 4, 3, 1, 2, 2, 5, 8}
		n := out.Len()
		for i, w := range wantTail {
			if got := out.Codes().Get(n - len(wantTail) + i); got != w {
				t.Fatalf("%v: code[%d]=%d want %d", alg, i, got, w)
			}
		}
		for i := range full {
			if out.At(i) != full[i] {
				t.Fatalf("%v: value[%d]=%q want %q", alg, i, out.At(i), full[i])
			}
		}
		for i, v := range deltaVals {
			if out.At(len(full)+i) != v {
				t.Fatalf("%v: delta value[%d]=%q want %q", alg, i, out.At(len(full)+i), v)
			}
		}
	}
}

func TestMergeAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 25; iter++ {
		nm := rng.Intn(5000)
		nd := rng.Intn(2000)
		domain := uint64(1 + rng.Intn(800))
		mv := make([]uint64, nm)
		for i := range mv {
			mv[i] = rng.Uint64() % domain
		}
		dv := make([]uint64, nd)
		for i := range dv {
			dv[i] = rng.Uint64() % domain
		}
		m, d := buildColumn(mv, dv)
		for _, alg := range []Algorithm{Optimized, Naive} {
			for _, nt := range []int{1, 4} {
				out, st := MergeColumn(m, d, Options{Algorithm: alg, Threads: nt})
				checkMerged(t, out, mv, dv, st)
			}
		}
	}
}

// TestMergeParallelLarge runs both variants above both parallel thresholds,
// so the chunked Step 2 and the three-phase Step 1(b) actually run: at every
// thread count each must build the serial optimized merge's dictionary and
// packed words, word for word.
func TestMergeParallelLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nm, nd := 200000, 40000
	mv := make([]uint64, nm)
	for i := range mv {
		mv[i] = rng.Uint64() % 50000
	}
	dv := make([]uint64, nd)
	for i := range dv {
		dv[i] = rng.Uint64() % 50000
	}
	m, d := buildColumn(mv, dv)
	ref, st := MergeColumn(m, d, Options{Threads: 1})
	checkMerged(t, ref, mv, dv, st)
	for _, alg := range []Algorithm{Optimized, Naive} {
		for _, nt := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/threads=%d", alg, nt), func(t *testing.T) {
				out, _ := MergeColumn(m, d, Options{Algorithm: alg, Threads: nt})
				identicalMain(t, out, ref)
			})
		}
	}
}

func TestMergeEmptyDelta(t *testing.T) {
	mv := []uint64{5, 1, 5, 9}
	m, d := buildColumn(mv, nil)
	out, st := MergeColumn(m, d, Options{})
	checkMerged(t, out, mv, nil, st)
	if st.UniqueDelta != 0 {
		t.Fatalf("UniqueDelta=%d want 0", st.UniqueDelta)
	}
}

func TestMergeEmptyMain(t *testing.T) {
	dv := []uint64{4, 4, 2, 7}
	m := colstore.Empty[uint64]()
	d := delta.New[uint64]()
	for _, v := range dv {
		d.Insert(v)
	}
	for _, alg := range []Algorithm{Optimized, Naive} {
		out, st := MergeColumn(m, d, Options{Algorithm: alg})
		checkMerged(t, out, nil, dv, st)
	}
}

func TestMergeBothEmpty(t *testing.T) {
	m := colstore.Empty[uint64]()
	d := delta.New[uint64]()
	out, st := MergeColumn(m, d, Options{})
	if out.Len() != 0 || st.UniqueMerged != 0 {
		t.Fatal("empty merge produced tuples")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBitWidthGrowth(t *testing.T) {
	// Main has 2 distinct values (1 bit); delta adds enough to need 4 bits.
	mv := []uint64{0, 1, 0, 1}
	dv := []uint64{2, 3, 4, 5, 6, 7, 8}
	m, d := buildColumn(mv, dv)
	out, st := MergeColumn(m, d, Options{})
	if st.BitsBefore != 1 || st.BitsAfter != 4 {
		t.Fatalf("bits %d->%d want 1->4", st.BitsBefore, st.BitsAfter)
	}
	checkMerged(t, out, mv, dv, st)
}

func TestSingleValueColumn(t *testing.T) {
	// One distinct value: 0-bit codes before and after.
	mv := []uint64{7, 7, 7}
	dv := []uint64{7, 7}
	m, d := buildColumn(mv, dv)
	out, st := MergeColumn(m, d, Options{})
	if st.BitsBefore != 0 || st.BitsAfter != 0 {
		t.Fatalf("bits %d->%d want 0->0", st.BitsBefore, st.BitsAfter)
	}
	checkMerged(t, out, mv, dv, st)
}

func TestRepeatedMergeCycles(t *testing.T) {
	// Merge, refill delta, merge again — five generations.
	rng := rand.New(rand.NewSource(77))
	m := colstore.Empty[uint64]()
	var all []uint64
	for gen := 0; gen < 5; gen++ {
		d := delta.New[uint64]()
		for i := 0; i < 1000; i++ {
			v := rng.Uint64() % 300
			d.Insert(v)
			all = append(all, v)
		}
		var st Stats
		m, st = MergeColumn(m, d, Options{Threads: 2})
		if st.NM+st.ND != len(all) {
			t.Fatalf("gen %d: size %d want %d", gen, st.NM+st.ND, len(all))
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
	}
	for i, v := range all {
		if m.At(i) != v {
			t.Fatalf("final[%d]=%d want %d", i, m.At(i), v)
		}
	}
}

func TestStatsTimingsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mv := make([]uint64, 50000)
	for i := range mv {
		mv[i] = rng.Uint64() % 10000
	}
	dv := make([]uint64, 10000)
	for i := range dv {
		dv[i] = rng.Uint64() % 10000
	}
	m, d := buildColumn(mv, dv)
	_, st := MergeColumn(m, d, Options{})
	if st.Step1a <= 0 || st.Step1b <= 0 || st.Step2 <= 0 {
		t.Fatalf("step timings not populated: %+v", st)
	}
	if st.Total() != st.Step1a+st.Step1b+st.Step2 {
		t.Fatal("Total mismatch")
	}
	if st.Step1() != st.Step1a+st.Step1b {
		t.Fatal("Step1 mismatch")
	}
	if cpt := st.CyclesPerTuple(st.Total(), 3.3e9); cpt <= 0 {
		t.Fatalf("CyclesPerTuple=%f", cpt)
	}
	if st.ValueBytes != 8 {
		t.Fatalf("ValueBytes=%d want 8", st.ValueBytes)
	}
}

// TestStatsAlgorithmRan checks that Stats names the variant that ran: a
// naive merge that drops something runs, and reports, the optimized one.
func TestStatsAlgorithmRan(t *testing.T) {
	m, d := buildColumn([]uint64{3, 1, 4, 1, 5}, []uint64{9, 2})
	for _, c := range []struct {
		drop Drop
		want Algorithm
	}{
		{Drop{}, Naive},
		{NewDrop([]bool{false, true}, m.Len()+d.Len()), Optimized},
	} {
		out, st := MergeColumnDrop(m, d, c.drop, Options{Algorithm: Naive, Threads: 1})
		if st.Algorithm != c.want {
			t.Fatalf("drop of %d: Stats.Algorithm=%v, want %v", len(c.drop.Pos), st.Algorithm, c.want)
		}
		if out.Len() != m.Len()+d.Len()-len(c.drop.Pos) {
			t.Fatalf("drop of %d: merged %d tuples", len(c.drop.Pos), out.Len())
		}
	}
}

func TestAlignedChunks(t *testing.T) {
	for _, bits := range []uint{0, 1, 3, 8, 13, 17, 64} {
		for _, total := range []int{0, 1, 100, 12345} {
			for _, nt := range []int{1, 3, 8} {
				b := alignedChunks(bits, total, nt)
				if b[0] != 0 || b[len(b)-1] != total {
					t.Fatalf("bits=%d total=%d nt=%d: bounds %v", bits, total, nt, b)
				}
				for i := 1; i < len(b); i++ {
					if b[i] <= b[i-1] && !(total == 0 && len(b) == 2) {
						t.Fatalf("non-increasing bounds %v", b)
					}
					if i < len(b)-1 && bits != 0 {
						g := bitpackGroup(bits)
						if b[i]%g != 0 {
							t.Fatalf("bits=%d: bound %d not aligned to %d", bits, b[i], g)
						}
					}
				}
			}
		}
	}
}

func bitpackGroup(bits uint) int {
	return 64 / gcd(int(bits), 64)
}

func TestQuickMergeEquivalence(t *testing.T) {
	f := func(mraw, draw []uint16, threads uint8) bool {
		mv := make([]uint64, len(mraw))
		for i, r := range mraw {
			mv[i] = uint64(r % 300)
		}
		dv := make([]uint64, len(draw))
		for i, r := range draw {
			dv[i] = uint64(r % 300)
		}
		m, d := buildColumn(mv, dv)
		nt := int(threads%4) + 1
		opt, _ := MergeColumn(m, d, Options{Algorithm: Optimized, Threads: nt})
		nav, _ := MergeColumn(m, d, Options{Algorithm: Naive, Threads: nt})
		if opt.Len() != nav.Len() || opt.Dict().Len() != nav.Dict().Len() ||
			opt.Validate() != nil || nav.Validate() != nil {
			return false
		}
		for i := 0; i < opt.Len(); i++ {
			if opt.At(i) != nav.At(i) {
				return false
			}
		}
		want := append(append([]uint64{}, mv...), dv...)
		for i, v := range want {
			if opt.At(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringMerge(t *testing.T) {
	mv := []string{"bb", "aa", "bb"}
	m := colstore.FromValues(mv)
	d := delta.New[string]()
	dv := []string{"cc", "aa", "dd"}
	for _, v := range dv {
		d.Insert(v)
	}
	out, st := MergeColumn(m, d, Options{})
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.ValueBytes != 16 {
		t.Fatalf("ValueBytes=%d want 16 for strings", st.ValueBytes)
	}
	want := append(append([]string{}, mv...), dv...)
	for i, v := range want {
		if out.At(i) != v {
			t.Fatalf("[%d]=%q want %q", i, out.At(i), v)
		}
	}
}

func benchMerge(b *testing.B, alg Algorithm, nt int) {
	rng := rand.New(rand.NewSource(1))
	mv := make([]uint64, 1<<20)
	for i := range mv {
		mv[i] = rng.Uint64() % (1 << 17)
	}
	dv := make([]uint64, 1<<16)
	for i := range dv {
		dv[i] = rng.Uint64() % (1 << 17)
	}
	m, d := buildColumn(mv, dv)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeColumn(m, d, Options{Algorithm: alg, Threads: nt})
	}
}

func BenchmarkMergeOptimizedSerial(b *testing.B)   { benchMerge(b, Optimized, 1) }
func BenchmarkMergeOptimizedParallel(b *testing.B) { benchMerge(b, Optimized, 0) }
func BenchmarkMergeNaiveSerial(b *testing.B)       { benchMerge(b, Naive, 1) }
func BenchmarkMergeNaiveParallel(b *testing.B)     { benchMerge(b, Naive, 0) }
