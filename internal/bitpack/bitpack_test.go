package bitpack

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestMinBits(t *testing.T) {
	cases := []struct {
		n    int
		want uint
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {6, 3}, {8, 3},
		{9, 4}, {16, 4}, {17, 5}, {1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := MinBits(c.n); got != c.want {
			t.Errorf("MinBits(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// packRef is the oracle the Packer and the decoders are checked against: it
// sets every code's bits one at a time into exactly ceil(len*width/64)
// zeroed words.
func packRef(width uint, codes []uint64) []uint64 {
	words := make([]uint64, (uint64(len(codes))*uint64(width)+WordBits-1)/WordBits)
	for i, c := range codes {
		for b := uint(0); b < width; b++ {
			if c>>b&1 != 0 {
				pos := uint64(i)*uint64(width) + uint64(b)
				words[pos/WordBits] |= 1 << (pos % WordBits)
			}
		}
	}
	return words
}

// randomCodes returns n codes that fit in width bits.
func randomCodes(rng *rand.Rand, width uint, n int) []uint64 {
	codes := make([]uint64, n)
	for i := range codes {
		if width > 0 {
			codes[i] = rng.Uint64() >> (WordBits - width)
		}
	}
	return codes
}

// TestGetAllWidths reads the oracle's words and FromSlice's Packer-built
// vector back with Get at every width 0..64.
func TestGetAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := uint(0); width <= WordBits; width++ {
		ref := randomCodes(rng, width, 200)
		for name, v := range map[string]*Vector{
			"oracle": FromWords(width, len(ref), packRef(width, ref)),
			"packed": FromSlice(width, ref),
		} {
			if v.Len() != len(ref) || v.Bits() != width {
				t.Fatalf("width %d %s: %d x %d bits", width, name, v.Len(), v.Bits())
			}
			for i, want := range ref {
				if got := v.Get(i); got != want {
					t.Fatalf("width %d %s: Get(%d)=%d want %d", width, name, i, got, want)
				}
			}
		}
	}
}

// TestPackerRoundTrip packs every width 0..64 through Packers — in blocks of
// uneven sizes, from the start, from a word-aligned chunk boundary written
// out of order, and resumed inside a word — and compares the words with the
// oracle's and every code with Get.
func TestPackerRoundTrip(t *testing.T) {
	for width := uint(0); width <= WordBits; width++ {
		rng := rand.New(rand.NewSource(int64(width) + 7))
		n := 1000 + int(width)
		ref := randomCodes(rng, width, n)
		want := packRef(width, ref)
		put := func(v *Vector, from, to int) {
			p := v.PackerAt(from)
			for from < to {
				blk := min(1+rng.Intn(97), to-from)
				p.Put(ref[from : from+blk])
				from += blk
			}
			p.Flush()
		}
		split := n / 2 // second chunk first, as a parallel worker might
		for uint64(split)*uint64(width)%WordBits != 0 {
			split--
		}
		resume := n/3 | 1 // odd: inside a word at most widths
		for name, fill := range map[string]func(v *Vector){
			"whole":   func(v *Vector) { put(v, 0, n) },
			"chunks":  func(v *Vector) { put(v, split, n); put(v, 0, split) },
			"resumed": func(v *Vector) { put(v, 0, resume); put(v, resume, n) },
		} {
			v := Make(width, n)
			fill(v)
			if !slices.Equal(v.Words(), want) {
				t.Fatalf("width %d %s: words differ from the oracle's", width, name)
			}
			for i := range ref {
				if got := v.Get(i); got != ref[i] {
					t.Fatalf("width %d %s: Get(%d)=%d want %d", width, name, i, got, ref[i])
				}
			}
		}
	}
}

func TestPackerRejectsOversizedCode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a 4-bit code into a 3-bit vector did not panic")
		}
	}()
	p := Make(3, 8).PackerAt(0)
	p.Put([]uint64{1, 7, 8})
}

// TestWordsExactAndPadded pins what Words promises of every vector, made by
// Make and filled by a Packer or built by FromSlice: exactly
// ceil(n*width/64) words, zero bits past the last code — and that FromWords
// inverts Words.
func TestWordsExactAndPadded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for width := uint(0); width <= WordBits; width++ {
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			ref := randomCodes(rng, width, n)
			made := Make(width, n)
			p := made.PackerAt(0)
			for from := 0; from < n; from += 10 {
				p.Put(ref[from:min(from+10, n)])
			}
			p.Flush()
			for _, v := range []*Vector{made, FromSlice(width, ref)} {
				words := v.Words()
				bits := uint64(n) * uint64(width)
				if uint64(len(words)) != (bits+WordBits-1)/WordBits {
					t.Fatalf("width %d n %d: %d words", width, n, len(words))
				}
				if tail := bits % WordBits; tail != 0 && words[len(words)-1]>>tail != 0 {
					t.Fatalf("width %d n %d: padding bits set", width, n)
				}
				back := FromWords(width, n, words)
				for i := 0; i < n; i++ {
					if back.Get(i) != ref[i] {
						t.Fatalf("width %d n %d: FromWords code %d = %d want %d", width, n, i, back.Get(i), ref[i])
					}
				}
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(codes []uint16, widthSeed uint8) bool {
		width := uint(widthSeed%49) + 16 // 16..64: all uint16 values fit
		wide := make([]uint64, len(codes))
		for i, c := range codes {
			wide[i] = uint64(c)
		}
		v := FromSlice(width, wide)
		for i, c := range codes {
			if v.Get(i) != uint64(c) {
				return false
			}
		}
		return v.Len() == len(codes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	v := FromSlice(3, []uint64{1, 2})
	expectPanic("Get OOB", func() { v.Get(2) })
	expectPanic("Get neg", func() { v.Get(-1) })
	expectPanic("FromSlice overflow", func() { FromSlice(3, []uint64{1, 8}) })
	expectPanic("FromSlice width 0 overflow", func() { FromSlice(0, []uint64{0, 1}) })
	expectPanic("Make width>64", func() { Make(65, 0) })
	expectPanic("Make negative length", func() { Make(3, -1) })
	expectPanic("PackerAt past end", func() { v.PackerAt(3) })
	expectPanic("PackerAt neg", func() { v.PackerAt(-1) })
}

func BenchmarkDecodeRange(b *testing.B) {
	const n = 1 << 16
	v := FromSlice(17, randomCodes(rand.New(rand.NewSource(3)), 17, n))
	var buf [1024]uint64
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for from := 0; from < n; from += len(buf) {
			for _, c := range v.DecodeRange(from, from+len(buf), buf[:]) {
				sink += c
			}
		}
	}
	_ = sink
}

func BenchmarkGetRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	v := FromSlice(17, randomCodes(rng, 17, 1<<16))
	idx := rng.Perm(1 << 16)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += v.Get(idx[i&(1<<16-1)])
	}
	_ = sink
}

// TestDecodeRangeMisaligned decodes spans of the oracle's words that start
// and end mid-word, and word-aligned ones for contrast, at widths where
// codes straddle words and where they do not.
func TestDecodeRangeMisaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, width := range []uint{0, 1, 3, 5, 7, 8, 12, 13, 16, 31, 32, 33, 63, 64} {
		n := 300
		want := randomCodes(rng, width, n)
		v := FromWords(width, n, packRef(width, want))
		spans := [][2]int{{0, n}, {1, n - 1}, {7, 200}, {63, 65}, {64, 128},
			{65, 66}, {n - 1, n}, {13, 13}, {0, 0}, {n, n}}
		for _, s := range spans {
			got := v.DecodeRange(s[0], s[1], nil)
			if !slices.Equal(got, want[s[0]:s[1]]) {
				t.Fatalf("w=%d [%d,%d): got %v", width, s[0], s[1], got)
			}
		}
	}
}

func TestDecodeRangeReusesDst(t *testing.T) {
	v := FromSlice(13, []uint64{1, 2, 3, 4, 5, 6, 7, 8})
	buf := make([]uint64, 8)
	got := v.DecodeRange(2, 7, buf)
	if &got[0] != &buf[0] {
		t.Fatal("DecodeRange reallocated despite sufficient capacity")
	}
	if len(got) != 5 || got[0] != 3 || got[4] != 7 {
		t.Fatalf("DecodeRange content wrong: %v", got)
	}
	// Undersized dst must grow, not panic.
	grown := v.DecodeRange(0, 8, make([]uint64, 0, 2))
	if len(grown) != 8 || grown[7] != 8 {
		t.Fatalf("DecodeRange grow failed: %v", grown)
	}
}

func TestDecodeRangePanics(t *testing.T) {
	v := FromSlice(8, []uint64{1, 2, 3})
	for _, s := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("DecodeRange(%d,%d) did not panic", s[0], s[1])
				}
			}()
			v.DecodeRange(s[0], s[1], nil)
		}()
	}
}

// TestMakeZeroed: a vector fresh from Make is already at its length, holds
// exactly ceil(n*width/64) zero words, and reads back as zeros through Get
// and through DecodeRange into a dirty buffer.
func TestMakeZeroed(t *testing.T) {
	for width := uint(0); width <= WordBits; width++ {
		for _, n := range []int{0, 1, 65, 1000} {
			v := Make(width, n)
			if v.Len() != n || v.Bits() != width {
				t.Fatalf("width %d n %d: made %d x %d bits", width, n, v.Len(), v.Bits())
			}
			if got, want := len(v.Words()), len(packRef(width, make([]uint64, n))); got != want {
				t.Fatalf("width %d n %d: %d words want %d", width, n, got, want)
			}
			for i, w := range v.Words() {
				if w != 0 {
					t.Fatalf("width %d n %d: word %d = %#x", width, n, i, w)
				}
			}
			for i := 0; i < n; i++ {
				if c := v.Get(i); c != 0 {
					t.Fatalf("width %d n %d: Get(%d)=%d", width, n, i, c)
				}
			}
			dirty := make([]uint64, n)
			for i := range dirty {
				dirty[i] = ^uint64(0)
			}
			for i, c := range v.DecodeRange(0, n, dirty) {
				if c != 0 {
					t.Fatalf("width %d n %d: DecodeRange code %d = %d", width, n, i, c)
				}
			}
		}
	}
}

// TestEmptyVectors: the zero Vector and a vector of no codes at any width
// hold no words, decode to nothing and accept a Packer at index 0.
func TestEmptyVectors(t *testing.T) {
	vs := []*Vector{{}}
	for width := uint(0); width <= WordBits; width++ {
		vs = append(vs, FromSlice(width, nil), Make(width, 0))
	}
	for _, v := range vs {
		if v.Len() != 0 || len(v.Words()) != 0 || v.SizeBytes() != 0 {
			t.Fatalf("width %d: empty vector has %d codes, %d words", v.Bits(), v.Len(), len(v.Words()))
		}
		if got := v.DecodeRange(0, 0, nil); len(got) != 0 {
			t.Fatalf("width %d: DecodeRange(0,0)=%v", v.Bits(), got)
		}
		p := v.PackerAt(0)
		p.Put(nil)
		p.Flush()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d: Get(0) on an empty vector did not panic", v.Bits())
				}
			}()
			v.Get(0)
		}()
	}
}

// TestSizeBytes: the payload is 8 bytes per backing word — none at width 0,
// however many codes.
func TestSizeBytes(t *testing.T) {
	for width := uint(0); width <= WordBits; width++ {
		for _, n := range []int{0, 1, 63, 64, 65, 1 << 16} {
			v := Make(width, n)
			want := int((uint64(n)*uint64(width) + WordBits - 1) / WordBits * 8)
			if v.SizeBytes() != want || v.SizeBytes() != 8*len(v.Words()) {
				t.Fatalf("width %d n %d: SizeBytes=%d want %d", width, n, v.SizeBytes(), want)
			}
		}
	}
}

// TestFromSliceMatchesOracle compares FromSlice's words with the oracle's at
// every width 0..64.
func TestFromSliceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for width := uint(0); width <= WordBits; width++ {
		for _, n := range []int{1, 64, 777} {
			ref := randomCodes(rng, width, n)
			if got := FromSlice(width, ref).Words(); !slices.Equal(got, packRef(width, ref)) {
				t.Fatalf("width %d n %d: words differ from the oracle's", width, n)
			}
		}
	}
}

// TestDecodeRangeMatchesGet checks the block decoder against the random-access
// one over random spans at every width 0..64.
func TestDecodeRangeMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for width := uint(0); width <= WordBits; width++ {
		n := 500
		v := FromWords(width, n, packRef(width, randomCodes(rng, width, n)))
		buf := make([]uint64, 0, 64)
		for k := 0; k < 50; k++ {
			from := rng.Intn(n + 1)
			to := from + rng.Intn(n-from+1)
			if k == 0 {
				from, to = 0, n
			}
			buf = v.DecodeRange(from, to, buf)
			for i, c := range buf {
				if want := v.Get(from + i); c != want {
					t.Fatalf("width %d [%d,%d): code %d = %d, Get says %d", width, from, to, from+i, c, want)
				}
			}
		}
	}
}

// TestPackerConcurrentChunks fills one vector from concurrent Packers, one per
// word-aligned chunk as the merge's Step 2 does, and compares the words with
// the oracle's.  Under -race it also shows no two chunks share a word.
func TestPackerConcurrentChunks(t *testing.T) {
	for width := uint(0); width <= WordBits; width++ {
		rng := rand.New(rand.NewSource(int64(width) + 23))
		n := 4096 + int(width)
		ref := randomCodes(rng, width, n)
		group := 1 // the fewest codes that fill whole words
		for uint(group)*width%WordBits != 0 {
			group++
		}
		bounds := []int{0}
		for _, b := range []int{n / 4, n / 2, 3 * n / 4} {
			bounds = append(bounds, b-b%group)
		}
		bounds = append(bounds, n)
		v := Make(width, n)
		var wg sync.WaitGroup
		for i := 0; i+1 < len(bounds); i++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				p := v.PackerAt(lo)
				for ; lo < hi; lo += 64 {
					p.Put(ref[lo:min(lo+64, hi)])
				}
				p.Flush()
			}(bounds[i], bounds[i+1])
		}
		wg.Wait()
		if !slices.Equal(v.Words(), packRef(width, ref)) {
			t.Fatalf("width %d chunks %v: words differ from the oracle's", width, bounds)
		}
	}
}

// TestPackerFitCheckAllWidths: at every width the largest code fits and
// reads back, and one more does not.
func TestPackerFitCheckAllWidths(t *testing.T) {
	for width := uint(0); width <= WordBits; width++ {
		top := ^uint64(0)
		if width < WordBits {
			top = 1<<width - 1
		}
		v := Make(width, 2)
		if v.MaxCode() != top {
			t.Fatalf("width %d: MaxCode=%#x want %#x", width, v.MaxCode(), top)
		}
		p := v.PackerAt(0)
		p.Put([]uint64{top})
		p.Flush()
		if got := v.Get(0); got != top {
			t.Fatalf("width %d: Get(0)=%#x want %#x", width, got, top)
		}
		if width == WordBits {
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d: Put of %#x did not panic", width, top+1)
				}
			}()
			p := Make(width, 2).PackerAt(1)
			p.Put([]uint64{top + 1})
		}()
	}
}

// TestPackerResumesAtEveryOffset stops one Packer at every index and resumes
// with a second from there, so the resume lands at every bit offset within a
// word, and compares the words with the oracle's.
func TestPackerResumesAtEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, width := range []uint{1, 3, 7, 13, 31, 33, 63, 64} {
		n := 130
		ref := randomCodes(rng, width, n)
		want := packRef(width, ref)
		for i := 0; i <= n; i++ {
			v := Make(width, n)
			p := v.PackerAt(0)
			p.Put(ref[:i])
			p.Flush()
			q := v.PackerAt(i)
			q.Put(ref[i:])
			q.Flush()
			if !slices.Equal(v.Words(), want) {
				t.Fatalf("width %d resumed at %d: words differ from the oracle's", width, i)
			}
		}
	}
}
