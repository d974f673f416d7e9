package colstore

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hyrise/internal/bitpack"
	"hyrise/internal/dict"
	"hyrise/internal/kernel"
	"hyrise/internal/val"
)

func TestFromValuesRoundTrip(t *testing.T) {
	vals := []uint64{50, 10, 30, 10, 50, 50, 20}
	m := FromValues(vals)
	if m.Len() != len(vals) {
		t.Fatalf("Len=%d want %d", m.Len(), len(vals))
	}
	if m.Dict().Len() != 4 {
		t.Fatalf("dict len %d want 4", m.Dict().Len())
	}
	if m.Bits() != 2 {
		t.Fatalf("Bits=%d want 2", m.Bits())
	}
	for i, v := range vals {
		if m.At(i) != v {
			t.Fatalf("At(%d)=%d want %d", i, m.At(i), v)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperExampleColumn(t *testing.T) {
	// Figure 5 main partition: 6 dictionary entries stored in 3 bits.
	vals := []string{"charlie", "hotel", "delta", "apple", "frank", "inbox",
		"hotel", "charlie", "delta", "inbox"}
	m := FromValues(vals)
	if m.Dict().Len() != 6 {
		t.Fatalf("dict len %d want 6", m.Dict().Len())
	}
	if m.Bits() != 3 {
		t.Fatalf("Bits=%d want 3 (ceil(log2 6))", m.Bits())
	}
	if code, ok := m.Dict().Lookup("hotel"); !ok || code != 4 {
		t.Fatalf("Lookup(hotel)=%d,%v want 4 (paper: encoded value 100)", code, ok)
	}
}

// sel selects the positions whose value lies in [lo, hi] the way a read
// plan binds and seeds them: the value range becomes one code interval on
// the order-preserving dictionary, matched by the scan kernels (an
// equality by MatchEqual) or, when indexed, by the group-key index.
func sel[V val.Value](m *Main[V], lo, hi V, indexed bool) []int32 {
	cLo, cHi := uint64(m.Dict().LowerBound(lo)), uint64(m.Dict().UpperBound(hi))
	switch {
	case cLo >= cHi:
		return nil
	case indexed && lo == hi:
		return m.Index().Equal(cLo, nil)
	case indexed:
		return m.Index().Range(cLo, cHi, nil)
	case lo == hi:
		return kernel.MatchEqual(m.Codes(), cLo, nil)
	default:
		return kernel.MatchRange(m.Codes(), cLo, cHi, nil)
	}
}

func TestSelEqual(t *testing.T) {
	vals := []uint64{5, 1, 5, 9, 5, 1}
	m := FromValues(vals)
	if got, want := sel(m, 5, 5, false), []int32{0, 2, 4}; !slices.Equal(got, want) {
		t.Fatalf("SelEqual=%v want %v", got, want)
	}
	if got := sel(m, 7, 7, false); len(got) != 0 {
		t.Fatalf("SelEqual(7)=%v want empty", got)
	}
	code, _ := m.Dict().Lookup(1)
	if n := kernel.CountEqual(m.Codes(), uint64(code), m.Len(), nil); n != 2 {
		t.Fatalf("CountEqual(1)=%d want 2", n)
	}
}

func TestSelRange(t *testing.T) {
	vals := []uint64{10, 20, 30, 40, 50, 25}
	m := FromValues(vals)
	if got, want := sel(m, 20, 40, false), []int32{1, 2, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("SelRange=%v want %v", got, want)
	}
	// Bounds not present in the data still select correctly.
	if got, want := sel(m, 11, 39, false), []int32{1, 2, 5}; !slices.Equal(got, want) {
		t.Fatalf("SelRange(11,39)=%v want %v", got, want)
	}
	if got := sel(m, 60, 70, false); len(got) != 0 {
		t.Fatalf("empty range returned %v", got)
	}
	if got := sel(m, 40, 20, false); len(got) != 0 {
		t.Fatalf("inverted range returned %v", got)
	}
}

func TestEmpty(t *testing.T) {
	m := Empty[uint64]()
	if m.Len() != 0 || m.Dict().Len() != 0 {
		t.Fatal("Empty not empty")
	}
	if got := sel(m, 1, 1, false); len(got) != 0 {
		t.Fatal("scan on empty found rows")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompression(t *testing.T) {
	// 1M-ish tuples over 100 distinct 8-byte values: 7 bits/tuple vs 64.
	rng := rand.New(rand.NewSource(3))
	vals := make([]uint64, 100000)
	for i := range vals {
		vals[i] = uint64(rng.Intn(100)) * 1e9
	}
	m := FromValues(vals)
	if m.Bits() != 7 {
		t.Fatalf("Bits=%d want 7", m.Bits())
	}
	ratio := float64(8*len(vals)) / float64(m.SizeBytes())
	if ratio < 5 {
		t.Fatalf("compression ratio %.1f too low", ratio)
	}
}

func TestNewPanicsOnNarrowCodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := dict.FromSorted([]uint64{1, 2, 3, 4, 5})
	New(d, bitpack.Make(2, 0)) // 2 bits cannot address 5 entries
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		vals := make([]uint64, len(raw))
		for i, r := range raw {
			vals[i] = uint64(r)
		}
		m := FromValues(vals)
		for i, v := range vals {
			if m.At(i) != v {
				return false
			}
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fromParts rebuilds m from the parts it exposes.
func fromParts[V val.Value](m *Main[V]) (*Main[V], error) {
	return FromParts(m.Dict().Values(), m.Bits(), m.Len(), m.Codes().Words())
}

// TestFromPartsRoundTrip: a main's own parts, at the dictionary extremes
// included, assemble into an equal main.
func TestFromPartsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	random := make([]uint64, 5000)
	for i := range random {
		random[i] = rng.Uint64() % 700
	}
	for name, m := range map[string]*Main[uint64]{
		"empty":         Empty[uint64](),
		"single value":  FromValues([]uint64{4, 4, 4}),
		"random":        FromValues(random),
		"one full word": FromValues([]uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}),
	} {
		got, err := fromParts(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < m.Len(); i++ {
			if got.At(i) != m.At(i) {
				t.Fatalf("%s: At(%d)=%d want %d", name, i, got.At(i), m.At(i))
			}
		}
	}
	unique := FromValues([]string{"e", "a", "d", "b", "c"})
	if got, err := fromParts(unique); err != nil || got.Len() != 5 || got.Dict().Len() != 5 || got.At(0) != "e" {
		t.Fatalf("all-unique strings: %v", err)
	}
}

// TestValidateRejects breaks one invariant of a three-tuple main (values
// 7, 9, 7: codes 0, 1, 0 at one bit) at a time.
func TestValidateRejects(t *testing.T) {
	for name, c := range map[string]struct {
		dict  []uint64
		width uint
		rows  int
		words []uint64
	}{
		"dictionary unsorted":           {[]uint64{9, 7}, 1, 3, []uint64{0b010}},
		"dictionary repeats a value":    {[]uint64{7, 7}, 1, 3, []uint64{0b010}},
		"width over MinBits":            {[]uint64{7, 9}, 2, 3, []uint64{0b00_01_00}},
		"width beyond 64":               {[]uint64{7, 9}, 200, 3, []uint64{0b010}},
		"too few words":                 {[]uint64{7, 9}, 1, 3, nil},
		"too many words":                {[]uint64{7, 9}, 1, 3, []uint64{0b010, 0}},
		"code beyond dictionary":        {[]uint64{7, 9, 11}, 2, 3, []uint64{0b11_01_00}},
		"unused dictionary entry":       {[]uint64{7, 9, 11}, 2, 3, []uint64{0b00_01_00}},
		"padding bits set":              {[]uint64{7, 9}, 1, 3, []uint64{0b1000_010}},
		"empty dictionary under a main": {nil, 0, 3, nil},
		"dictionary on an empty main":   {[]uint64{7}, 0, 0, nil},
		"negative length":               {nil, 0, -1, nil},
	} {
		if m, err := FromParts(c.dict, c.width, c.rows, c.words); err == nil {
			t.Errorf("%s: assembled a main of %d tuples", name, m.Len())
		}
	}
	if _, err := FromParts([]uint64{7, 9}, 1, 3, []uint64{0b010}); err != nil {
		t.Fatalf("well-formed parts: %v", err)
	}
}

// TestQuickFromPartsNeverPanics: arbitrary parts either assemble into a
// main that validates or fail with an error.
func TestQuickFromPartsNeverPanics(t *testing.T) {
	f := func(dict []uint16, width uint8, rows uint8, words []uint64) bool {
		m, err := FromParts(dict, uint(width%70), int(rows), words)
		return err != nil || m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSelEqual(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 1<<20)
	for i := range vals {
		vals[i] = rng.Uint64() % 1000
	}
	m := FromValues(vals)
	code, _ := m.Dict().Lookup(500)
	b.ResetTimer()
	var dst []int32
	for i := 0; i < b.N; i++ {
		dst = kernel.MatchEqual(m.Codes(), uint64(code), dst[:0])
	}
}

func BenchmarkAt(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 1<<20)
	for i := range vals {
		vals[i] = rng.Uint64() % 1000
	}
	m := FromValues(vals)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.At(i & (1<<20 - 1))
	}
	_ = sink
}

func TestIndexedSelectionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, card := range []int{1, 3, 100, 5000} {
		vals := make([]uint64, 20000)
		for i := range vals {
			vals[i] = uint64(rng.Intn(card)) * 3 // gaps so probes can miss
		}
		m := FromValues(vals)
		m.BuildIndex()
		if m.Index() == nil {
			t.Fatal("BuildIndex did not attach")
		}
		probes := []uint64{0, 1, 3, vals[0], vals[len(vals)-1], uint64(card) * 3}
		for _, v := range probes {
			scan := sel(m, v, v, false)
			idx := sel(m, v, v, true)
			if len(scan) != len(idx) {
				t.Fatalf("card=%d SelEqualIndexed(%d): %d vs scan %d", card, v, len(idx), len(scan))
			}
			for i := range scan {
				if scan[i] != idx[i] {
					t.Fatalf("card=%d SelEqualIndexed(%d) diverges at %d", card, v, i)
				}
			}
		}
		for trial := 0; trial < 20; trial++ {
			lo := uint64(rng.Intn(card * 3))
			hi := lo + uint64(rng.Intn(card))
			scan := sel(m, lo, hi, false)
			idx := sel(m, lo, hi, true)
			if len(scan) != len(idx) {
				t.Fatalf("card=%d SelRangeIndexed(%d,%d): %d vs scan %d", card, lo, hi, len(idx), len(scan))
			}
			for i := range scan {
				if scan[i] != idx[i] {
					t.Fatalf("card=%d SelRangeIndexed(%d,%d) diverges at %d", card, lo, hi, i)
				}
			}
		}
	}
}

func TestSetIndexShapeMismatchPanics(t *testing.T) {
	m := FromValues([]uint64{1, 2, 3})
	other := FromValues([]uint64{1, 2, 3, 4})
	other.BuildIndex()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched SetIndex did not panic")
		}
	}()
	m.SetIndex(other.Index())
}

func TestEmptyMainIndex(t *testing.T) {
	m := Empty[uint64]()
	m.BuildIndex()
	if got := sel(m, 7, 7, true); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
	if got := sel(m, 1, 9, true); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}
