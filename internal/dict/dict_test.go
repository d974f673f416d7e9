package dict

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hyrise/internal/val"
)

func mkDict(vals ...uint64) *Dict[uint64] { return FromSorted(vals) }

func TestFromUnsorted(t *testing.T) {
	d := FromUnsorted([]uint64{5, 1, 5, 3, 1, 9})
	want := []uint64{1, 3, 5, 9}
	if d.Len() != len(want) {
		t.Fatalf("Len=%d want %d", d.Len(), len(want))
	}
	for i, v := range want {
		if d.At(i) != v {
			t.Fatalf("At(%d)=%d want %d", i, d.At(i), v)
		}
	}
}

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSorted([]uint64{1, 1})
}

func TestLookupAndBounds(t *testing.T) {
	d := mkDict(10, 20, 30, 40)
	if c, ok := d.Lookup(30); !ok || c != 2 {
		t.Fatalf("Lookup(30)=%d,%v", c, ok)
	}
	if _, ok := d.Lookup(35); ok {
		t.Fatal("Lookup(35) should miss")
	}
	if got := d.LowerBound(20); got != 1 {
		t.Fatalf("LowerBound(20)=%d want 1", got)
	}
	if got := d.LowerBound(21); got != 2 {
		t.Fatalf("LowerBound(21)=%d want 2", got)
	}
	if got := d.UpperBound(20); got != 2 {
		t.Fatalf("UpperBound(20)=%d want 2", got)
	}
	if got := d.LowerBound(99); got != 4 {
		t.Fatalf("LowerBound(99)=%d want 4", got)
	}
}

func TestStringDict(t *testing.T) {
	d := FromUnsorted([]string{"delta", "apple", "charlie", "apple"})
	if d.Len() != 3 {
		t.Fatalf("Len=%d want 3", d.Len())
	}
	if c, ok := d.Lookup("charlie"); !ok || c != 1 {
		t.Fatalf("Lookup(charlie)=%d,%v", c, ok)
	}
}

// mergeErr checks a MergeResult against the definition: Merged is the
// sorted unique union of the values of the live entries (a nil mask marks
// none dead), every live entry's X maps back to its value, and every X
// entry is below max(|Merged|, 1).
func mergeErr[V val.Value](m, d *Dict[V], deadM, deadD []bool, r MergeResult[V]) error {
	var want []V
	for _, in := range []struct {
		dict *Dict[V]
		dead []bool
	}{{m, deadM}, {d, deadD}} {
		for i, v := range in.dict.Values() {
			if !isDead(in.dead, i) {
				want = append(want, v)
			}
		}
	}
	slices.Sort(want)
	want = slices.Compact(want)
	if !slices.Equal(r.Merged.Values(), want) {
		return fmt.Errorf("merged %v, want %v", r.Merged.Values(), want)
	}
	for _, side := range []struct {
		name string
		dict *Dict[V]
		dead []bool
		x    []uint32
	}{{"XM", m, deadM, r.XM}, {"XD", d, deadD, r.XD}} {
		if len(side.x) != side.dict.Len() {
			return fmt.Errorf("%s has %d entries, want %d", side.name, len(side.x), side.dict.Len())
		}
		for i, c := range side.x {
			if int(c) >= max(len(want), 1) {
				return fmt.Errorf("%s[%d]=%d, out of range of %d values", side.name, i, c, len(want))
			}
			if v := side.dict.At(i); !isDead(side.dead, i) && r.Merged.At(int(c)) != v {
				return fmt.Errorf("%s[%d]=%d maps %v to %v", side.name, i, c, v, r.Merged.At(int(c)))
			}
		}
	}
	return nil
}

// isDead reports whether a mask marks entry i; a nil mask marks none.
func isDead(dead []bool, i int) bool { return dead != nil && dead[i] }

func TestMergePaperExample(t *testing.T) {
	// Figure 5/6: main dict {apple charlie delta frank hotel inbox},
	// delta dict {bravo charlie golf young}.
	m := FromSorted([]string{"apple", "charlie", "delta", "frank", "hotel", "inbox"})
	d := FromSorted([]string{"bravo", "charlie", "golf", "young"})
	wantMerged := []string{"apple", "bravo", "charlie", "delta", "frank", "golf", "hotel", "inbox", "young"}
	// Figure 6 main auxiliary: [0 2 3 4 6 7]; delta auxiliary: [1 2 5 8].
	wantXM := []uint32{0, 2, 3, 4, 6, 7}
	wantXD := []uint32{1, 2, 5, 8}
	for _, nt := range []int{1, 2, 3, 10} {
		r := Merge(m, d, nil, nil, nt)
		if !slices.Equal(r.Merged.Values(), wantMerged) {
			t.Fatalf("nt=%d: merged %q want %q", nt, r.Merged.Values(), wantMerged)
		}
		if !slices.Equal(r.XM, wantXM) || !slices.Equal(r.XD, wantXD) {
			t.Fatalf("nt=%d: X_M %v X_D %v, want %v %v", nt, r.XM, r.XD, wantXM, wantXD)
		}
	}
}

func TestMergeDisjointAndOverlap(t *testing.T) {
	cases := []struct{ m, d []uint64 }{
		{[]uint64{1, 3, 5}, []uint64{2, 4, 6}},
		{[]uint64{1, 2, 3}, []uint64{1, 2, 3}},
		{[]uint64{}, []uint64{1, 2}},
		{[]uint64{1, 2}, []uint64{}},
		{[]uint64{}, []uint64{}},
		{[]uint64{5}, []uint64{5}},
		{[]uint64{1, 100}, []uint64{50}},
	}
	for _, c := range cases {
		m, d := FromSorted(c.m), FromSorted(c.d)
		r := Merge(m, d, nil, nil, 1)
		if err := mergeErr(m, d, nil, nil, r); err != nil {
			t.Fatalf("%v + %v: %v", c.m, c.d, err)
		}
		if noaux := MergeNoAux(m, d); !slices.Equal(noaux.Values(), r.Merged.Values()) {
			t.Fatalf("MergeNoAux %v want %v", noaux.Values(), r.Merged.Values())
		}
	}
}

func randomDictPair(rng *rand.Rand, maxLen int, domain uint64) (*Dict[uint64], *Dict[uint64]) {
	gen := func(n int) *Dict[uint64] {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() % domain
		}
		return FromUnsorted(vals)
	}
	return gen(rng.Intn(maxLen)), gen(rng.Intn(maxLen))
}

// randomDead marks each of n entries dead with probability frac, or
// returns nil — nothing dead — for a negative frac.
func randomDead(rng *rand.Rand, n int, frac float64) []bool {
	if frac < 0 {
		return nil
	}
	dead := make([]bool, n)
	for i := range dead {
		dead[i] = rng.Float64() < frac
	}
	return dead
}

// TestMergeEveryNTMatchesSerial checks that Merge's result does not depend
// on nt: every range cut, count pass and offset write reproduces the serial
// merge exactly, with and without dead entries.
func TestMergeEveryNTMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 60; iter++ {
		// Small domain forces heavy cross-dictionary duplication, so range
		// cuts keep landing between two copies of one value.
		domain := uint64(1 + rng.Intn(200))
		m, d := randomDictPair(rng, 5000, domain)
		frac := []float64{-1, 0.3}[iter%2]
		deadM, deadD := randomDead(rng, m.Len(), frac), randomDead(rng, d.Len(), frac)
		want := Merge(m, d, deadM, deadD, 1)
		for _, nt := range []int{2, 3, 4, 7, 8, 16, 33} {
			got := Merge(m, d, deadM, deadD, nt)
			if !slices.Equal(got.Merged.Values(), want.Merged.Values()) ||
				!slices.Equal(got.XM, want.XM) || !slices.Equal(got.XD, want.XD) {
				t.Fatalf("iter %d nt=%d domain=%d: result differs from nt=1", iter, nt, domain)
			}
		}
	}
}

// TestMergeDead checks merges with dead entries against the definition over
// random dictionary pairs that share many values: nothing, a random share
// and everything dead on each side, at every thread count.
func TestMergeDead(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fracs := []float64{-1, 0, 0.4, 1}
	splitShared := 0 // shared values dead on one side and live on the other
	for iter := 0; iter < 40; iter++ {
		m, d := randomDictPair(rng, 400, uint64(2+rng.Intn(299)))
		for _, fm := range fracs {
			for _, fd := range fracs {
				deadM, deadD := randomDead(rng, m.Len(), fm), randomDead(rng, d.Len(), fd)
				for i, v := range m.Values() {
					if j, ok := d.Lookup(v); ok && isDead(deadM, i) != isDead(deadD, j) {
						splitShared++
					}
				}
				for _, nt := range []int{1, 2, 3, 4, 7, 8, 16, 33} {
					if err := mergeErr(m, d, deadM, deadD, Merge(m, d, deadM, deadD, nt)); err != nil {
						t.Fatalf("iter %d dead %v/%v nt=%d: %v", iter, fm, fd, nt, err)
					}
				}
			}
		}
	}
	if splitShared == 0 {
		t.Fatal("no shared value was dead on one side and live on the other")
	}
}

func TestMergeLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, d := randomDictPair(rng, 200000, 150000)
	deadM, deadD := randomDead(rng, m.Len(), 0.025), randomDead(rng, d.Len(), 0.025)
	for _, nt := range []int{1, 8} {
		if err := mergeErr(m, d, nil, nil, Merge(m, d, nil, nil, nt)); err != nil {
			t.Fatalf("nt=%d: %v", nt, err)
		}
		if err := mergeErr(m, d, deadM, deadD, Merge(m, d, deadM, deadD, nt)); err != nil {
			t.Fatalf("nt=%d, dead: %v", nt, err)
		}
	}
}

func TestCoRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 40; iter++ {
		m, d := randomDictPair(rng, 300, 80)
		a, b := m.Values(), d.Values()
		// Reference merged sequence with a-first tie-break, duplicates kept.
		type tagged struct {
			v     uint64
			fromA bool
		}
		var ref []tagged
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if a[i] <= b[j] {
				ref = append(ref, tagged{a[i], true})
				i++
			} else {
				ref = append(ref, tagged{b[j], false})
				j++
			}
		}
		for ; i < len(a); i++ {
			ref = append(ref, tagged{a[i], true})
		}
		for ; j < len(b); j++ {
			ref = append(ref, tagged{b[j], false})
		}
		for k := 0; k <= len(ref); k++ {
			gi, gj := coRank(a, b, k)
			wi, wj := 0, 0
			for _, tg := range ref[:k] {
				if tg.fromA {
					wi++
				} else {
					wj++
				}
			}
			if gi != wi || gj != wj {
				t.Fatalf("coRank(k=%d)=(%d,%d) want (%d,%d)", k, gi, gj, wi, wj)
			}
		}
	}
}

func TestMergeQuick(t *testing.T) {
	f := func(ma, da []uint16, seed int64, nt uint8) bool {
		mv := make([]uint64, len(ma))
		for i, v := range ma {
			mv[i] = uint64(v % 512)
		}
		dv := make([]uint64, len(da))
		for i, v := range da {
			dv[i] = uint64(v % 512)
		}
		m, d := FromUnsorted(mv), FromUnsorted(dv)
		rng := rand.New(rand.NewSource(seed))
		frac := []float64{-1, 0, 0.5, 1}[rng.Intn(4)]
		deadM, deadD := randomDead(rng, m.Len(), frac), randomDead(rng, d.Len(), frac)
		want := Merge(m, d, deadM, deadD, 1)
		got := Merge(m, d, deadM, deadD, int(nt%9)+1)
		return mergeErr(m, d, deadM, deadD, got) == nil &&
			slices.Equal(got.Merged.Values(), want.Merged.Values()) &&
			slices.Equal(got.XM, want.XM) && slices.Equal(got.XD, want.XD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMergeSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, d := randomDictPair(rng, 1<<20, 1<<19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(m, d, nil, nil, 1)
	}
}

func BenchmarkMergeParallel8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, d := randomDictPair(rng, 1<<20, 1<<19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(m, d, nil, nil, 8)
	}
}

// BenchmarkMergeDead merges two dictionaries of 1M entries each, half of
// whose values both hold, with 2.5 % of the entries on each side dead.
func BenchmarkMergeDead(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	run := func() *Dict[uint64] {
		vals := make([]uint64, 1<<20)
		for i := range vals {
			vals[i] = uint64(2*i + rng.Intn(2))
		}
		return FromSorted(vals)
	}
	m, d := run(), run()
	deadM, deadD := randomDead(rng, m.Len(), 0.025), randomDead(rng, d.Len(), 0.025)
	for _, nt := range []int{1, 8} {
		b.Run(fmt.Sprintf("nt=%d", nt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Merge(m, d, deadM, deadD, nt)
			}
		})
	}
}
