package bitpack

import (
	"math/rand"
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

func TestAppendGetAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := uint(0); width <= 64; width++ {
		v := New(width, 0)
		var ref []uint64
		for i := 0; i < 200; i++ {
			var c uint64
			if width == 64 {
				c = rng.Uint64()
			} else if width > 0 {
				c = rng.Uint64() & ((1 << width) - 1)
			}
			v.Append(c)
			ref = append(ref, c)
		}
		if v.Len() != len(ref) {
			t.Fatalf("width %d: Len=%d want %d", width, v.Len(), len(ref))
		}
		for i, want := range ref {
			if got := v.Get(i); got != want {
				t.Fatalf("width %d: Get(%d)=%d want %d", width, i, got, want)
			}
		}
	}
}

func TestSetOverwrite(t *testing.T) {
	for _, width := range []uint{1, 3, 7, 13, 31, 33, 64} {
		v := New(width, 0)
		n := 150
		for i := 0; i < n; i++ {
			v.Append(0)
		}
		rng := rand.New(rand.NewSource(int64(width)))
		ref := make([]uint64, n)
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < n; i++ {
				c := rng.Uint64() & v.MaxCode()
				v.Set(i, c)
				ref[i] = c
			}
		}
		for i := range ref {
			if got := v.Get(i); got != ref[i] {
				t.Fatalf("width %d: Get(%d)=%d want %d", width, i, got, ref[i])
			}
		}
	}
}

func TestReaderMatchesGet(t *testing.T) {
	for _, width := range []uint{0, 1, 5, 8, 11, 17, 32, 63, 64} {
		rng := rand.New(rand.NewSource(int64(width) + 7))
		v := New(width, 0)
		for i := 0; i < 300; i++ {
			v.Append(rng.Uint64() & v.MaxCode())
		}
		r := v.Reader()
		for i := 0; i < v.Len(); i++ {
			if got, want := r.Next(), v.Get(i); got != want {
				t.Fatalf("width %d: Reader at %d = %d, Get = %d", width, i, got, want)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("width %d: Remaining=%d after full scan", width, r.Remaining())
		}
	}
}

func TestWriterSequential(t *testing.T) {
	for _, width := range []uint{0, 1, 6, 12, 21, 40, 64} {
		rng := rand.New(rand.NewSource(int64(width) + 99))
		n := 257
		w := NewWriter(width, n)
		ref := make([]uint64, n)
		for i := range ref {
			ref[i] = rng.Uint64()
			if width < 64 {
				ref[i] &= (uint64(1) << width) - 1
			}
			w.Write(ref[i])
		}
		v := w.Vector()
		if v.Len() != n {
			t.Fatalf("width %d: Len=%d want %d", width, v.Len(), n)
		}
		for i := range ref {
			if got := v.Get(i); got != ref[i] {
				t.Fatalf("width %d: Get(%d)=%d want %d", width, i, got, ref[i])
			}
		}
	}
}

func TestWriterWriteAt(t *testing.T) {
	for _, width := range []uint{1, 9, 13, 32, 64} {
		n := 300
		w := NewWriter(width, n)
		ref := make([]uint64, n)
		rng := rand.New(rand.NewSource(int64(width)))
		// Populate in random order from aligned chunks, as parallel Step 2 does.
		perm := rng.Perm(n)
		for _, i := range perm {
			ref[i] = rng.Uint64()
			if width < 64 {
				ref[i] &= (uint64(1) << width) - 1
			}
			w.WriteAt(i, ref[i])
		}
		w.SetLen(n)
		v := w.Vector()
		for i := range ref {
			if got := v.Get(i); got != ref[i] {
				t.Fatalf("width %d: Get(%d)=%d want %d", width, i, got, ref[i])
			}
		}
	}
}

// TestPackerRoundTrip packs every width 0..64 through Packers — in blocks of
// uneven sizes, from the start, from a word-aligned chunk boundary written
// out of order, and resumed inside a word — and reads it back with Get, and
// word for word against Writer.Write.
func TestPackerRoundTrip(t *testing.T) {
	for width := uint(0); width <= 64; width++ {
		rng := rand.New(rand.NewSource(int64(width) + 7))
		n := 1000 + int(width)
		ref := make([]uint64, n)
		want := NewWriter(width, n)
		for i := range ref {
			ref[i] = rng.Uint64()
			if width < 64 {
				ref[i] &= (uint64(1) << width) - 1
			}
			want.Write(ref[i])
		}
		put := func(w *Writer, from, to int) {
			p := w.PackerAt(from)
			for from < to {
				blk := min(1+rng.Intn(97), to-from)
				p.Put(ref[from : from+blk])
				from += blk
			}
			p.Flush()
		}
		split := ChunkAlign(width, n/2) // second chunk first, as a parallel worker might
		resume := n/3 | 1               // odd: inside a word at most widths
		for name, fill := range map[string]func(w *Writer){
			"whole":   func(w *Writer) { put(w, 0, n) },
			"chunks":  func(w *Writer) { put(w, split, n); put(w, 0, split) },
			"resumed": func(w *Writer) { put(w, 0, resume); put(w, resume, n) },
		} {
			w := NewWriter(width, n)
			fill(w)
			w.SetLen(n)
			v := w.Vector()
			for i := range ref {
				if got := v.Get(i); got != ref[i] {
					t.Fatalf("width %d %s: Get(%d)=%d want %d", width, name, i, got, ref[i])
				}
			}
			for i, word := range want.Vector().Words() {
				if v.Words()[i] != word {
					t.Fatalf("width %d %s: word %d differs from Writer.Write's", width, name, i)
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
	p := NewWriter(3, 8).PackerAt(0)
	p.Put([]uint64{1, 7, 8})
}

func TestChunkAlign(t *testing.T) {
	for width := uint(1); width <= 64; width++ {
		for _, n := range []int{0, 1, 63, 64, 65, 1000, 4097} {
			a := ChunkAlign(width, n)
			if a > n || a < 0 {
				t.Fatalf("width %d n %d: align %d out of range", width, n, a)
			}
			if a < n {
				// A chunk of a elements must end on a word boundary.
				if (uint64(a) * uint64(width) % WordBits) != 0 {
					t.Fatalf("width %d: ChunkAlign(%d)=%d not word-aligned", width, n, a)
				}
			}
		}
	}
	if got := ChunkAlign(0, 57); got != 57 {
		t.Fatalf("ChunkAlign(0,57)=%d want 57", got)
	}
}

func TestDecodeAndClone(t *testing.T) {
	v := FromSlice(5, []uint64{1, 2, 3, 30, 31, 0, 7})
	got := v.Decode(nil)
	want := []uint64{1, 2, 3, 30, 31, 0, 7}
	if len(got) != len(want) {
		t.Fatalf("Decode len %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Decode[%d]=%d want %d", i, got[i], want[i])
		}
	}
	c := v.Clone()
	c.Set(0, 9)
	if v.Get(0) != 1 {
		t.Fatal("Clone is not deep")
	}
}

// TestWordsExactAndPadded pins what Words promises of vectors built by
// Append and by a Writer — exactly ceil(n*width/64) words, zero bits past
// the last code — and that FromWords inverts Words.
func TestWordsExactAndPadded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for width := uint(0); width <= WordBits; width++ {
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			appended, w := New(width, 0), NewWriter(width, n)
			for i := 0; i < n; i++ {
				c := rng.Uint64() & appended.MaxCode()
				appended.Append(c)
				w.Write(c)
			}
			for _, v := range []*Vector{appended, w.Vector()} {
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
					if back.Get(i) != v.Get(i) {
						t.Fatalf("width %d n %d: FromWords code %d = %d want %d", width, n, i, back.Get(i), v.Get(i))
					}
				}
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(codes []uint16, widthSeed uint8) bool {
		width := uint(widthSeed%49) + 16 // 16..64: all uint16 values fit
		v := New(width, len(codes))
		for _, c := range codes {
			v.Append(uint64(c))
		}
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
	expectPanic("Set OOB", func() { v.Set(5, 0) })
	expectPanic("Append overflow", func() { v.Append(8) })
	expectPanic("Set overflow", func() { v.Set(0, 8) })
	expectPanic("New width>64", func() { New(65, 0) })
	r := v.Reader()
	r.Next()
	r.Next()
	expectPanic("Reader past end", func() { r.Next() })
}

func BenchmarkReaderNext(b *testing.B) {
	v := New(17, 1<<16)
	for i := 0; i < 1<<16; i++ {
		v.Append(uint64(i) & v.MaxCode())
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		r := v.Reader()
		for r.Remaining() > 0 {
			sink += r.Next()
		}
	}
	_ = sink
}

func BenchmarkGetRandom(b *testing.B) {
	v := New(17, 1<<16)
	for i := 0; i < 1<<16; i++ {
		v.Append(uint64(i) & v.MaxCode())
	}
	idx := rand.New(rand.NewSource(3)).Perm(1 << 16)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += v.Get(idx[i&(1<<16-1)])
	}
	_ = sink
}

func TestDecodeRangeMisaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, width := range []uint{0, 1, 3, 5, 7, 8, 12, 13, 16, 31, 32, 33, 63, 64} {
		n := 300
		v := New(width, n)
		want := make([]uint64, n)
		for i := range want {
			if width == 64 {
				want[i] = rng.Uint64()
			} else if width > 0 {
				want[i] = rng.Uint64() % (1 << width)
			}
			v.Append(want[i])
		}
		// Offsets chosen to start and end mid-word for every width, plus
		// chunk-aligned ones for contrast.
		spans := [][2]int{{0, n}, {1, n - 1}, {7, 200}, {63, 65}, {64, 128},
			{65, 66}, {n - 1, n}, {13, 13}, {0, 0}, {n, n}}
		for _, s := range spans {
			got := v.DecodeRange(s[0], s[1], nil)
			if len(got) != s[1]-s[0] {
				t.Fatalf("w=%d [%d,%d): len %d", width, s[0], s[1], len(got))
			}
			for i, w := range got {
				if w != want[s[0]+i] {
					t.Fatalf("w=%d [%d,%d)[%d] = %d want %d", width, s[0], s[1], i, w, want[s[0]+i])
				}
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
