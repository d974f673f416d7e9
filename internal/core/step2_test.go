package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hyrise/internal/bitpack"
	"hyrise/internal/colstore"
	"hyrise/internal/delta"
	"hyrise/internal/dict"
)

// mergeColumnGCRef is the scalar garbage-collecting merge the block kernel
// replaced, kept as the reference the kernel is pinned to: a census pass
// over the main's codes read one Get at a time that marks the codes
// survivors use, two dependent lookups per tuple (remap, then translation
// table) and the survivors' codes packed bit by bit by packBits.  Positions
// beyond the mask are kept.
func mergeColumnGCRef(m *colstore.Main[uint64], d *delta.Partition[uint64], drop []bool) *colstore.Main[uint64] {
	at := func(i int) bool { return i < len(drop) && drop[i] }
	dictD, deltaCodes := d.ExtractDict()
	mainCodes := codesOf(m.Codes())
	nm := len(mainCodes)
	usedM := make([]bool, m.Dict().Len())
	usedD := make([]bool, dictD.Len())
	kept := 0
	for i, code := range mainCodes {
		if !at(i) {
			usedM[code] = true
			kept++
		}
	}
	for j, dc := range deltaCodes {
		if !at(nm + j) {
			usedD[dc] = true
			kept++
		}
	}
	compact := func(d *dict.Dict[uint64], used []bool) (*dict.Dict[uint64], []uint32) {
		var vals []uint64
		remap := make([]uint32, len(used))
		for code, u := range used {
			if u {
				remap[code] = uint32(len(vals))
				vals = append(vals, d.At(code))
			}
		}
		return dict.FromSorted(vals), remap
	}
	dictMc, remapM := compact(m.Dict(), usedM)
	dictDc, remapD := compact(dictD, usedD)
	res := dict.Merge(dictMc, dictDc, nil, nil, 1)
	if kept == 0 {
		return colstore.Empty[uint64]()
	}
	out := make([]uint64, 0, kept)
	for i, code := range mainCodes {
		if !at(i) {
			out = append(out, uint64(res.XM[remapM[code]]))
		}
	}
	for j, dc := range deltaCodes {
		if !at(nm + j) {
			out = append(out, uint64(res.XD[remapD[dc]]))
		}
	}
	return colstore.New(res.Merged, packBits(bitpack.MinBits(res.Merged.Len()), out))
}

// codesOf reads every code of v with Get.
func codesOf(v *bitpack.Vector) []uint64 {
	codes := make([]uint64, v.Len())
	for i := range codes {
		codes[i] = v.Get(i)
	}
	return codes
}

// packBits is the oracle for bitpack.Packer: it sets each code's bits one
// at a time into exactly ceil(len*width/64) zeroed words.
func packBits(width uint, codes []uint64) *bitpack.Vector {
	words := make([]uint64, (uint64(len(codes))*uint64(width)+63)/64)
	for i, c := range codes {
		for b := uint(0); b < width; b++ {
			pos := uint64(i)*uint64(width) + uint64(b)
			words[pos/64] |= (c >> b & 1) << (pos % 64)
		}
	}
	return bitpack.FromWords(width, len(codes), words)
}

// identicalMain asserts byte identity: same dictionary values, same width,
// same length and the same backing words.
func identicalMain(t *testing.T, got, want *colstore.Main[uint64]) {
	t.Helper()
	if !slices.Equal(got.Dict().Values(), want.Dict().Values()) {
		t.Fatalf("dictionary differs: %d values, want %d", got.Dict().Len(), want.Dict().Len())
	}
	if got.Bits() != want.Bits() || got.Len() != want.Len() {
		t.Fatalf("shape %d x %d bits, want %d x %d bits", got.Len(), got.Bits(), want.Len(), want.Bits())
	}
	if !slices.Equal(got.Codes().Words(), want.Codes().Words()) {
		t.Fatal("packed words differ")
	}
}

// step2Case is one generated input of the merge differential.
type step2Case struct {
	nm, nd   int
	card     uint64 // values are drawn from [0, card)
	widen    uint   // the main's codes are stored this many bits wider than needed
	maskKind uint8  // 0 random, 1 all-false, 2 all-true, 3 short, 4 nil
	dropFrac float64
}

func (c step2Case) String() string {
	return fmt.Sprintf("nm=%d nd=%d card=%d widen=%d mask=%d/%.2f", c.nm, c.nd, c.card, c.widen, c.maskKind, c.dropFrac)
}

// build generates the column and mask.  A widened main holds the same codes
// in a vector wider than its dictionary needs, so that the merge narrows the
// width as well as, with a large delta, growing it.
func (c step2Case) build(rng *rand.Rand) (*colstore.Main[uint64], *delta.Partition[uint64], []bool) {
	mv := make([]uint64, c.nm)
	for i := range mv {
		mv[i] = rng.Uint64() % c.card
	}
	dv := make([]uint64, c.nd)
	for i := range dv {
		dv[i] = rng.Uint64() % (2 * c.card) // half of them new to the main
	}
	m, d := buildColumn(mv, dv)
	if c.widen > 0 {
		m = colstore.New(m.Dict(), packBits(m.Bits()+c.widen, codesOf(m.Codes())))
	}
	var mask []bool
	switch c.maskKind {
	case 0, 3:
		mask = make([]bool, c.nm+c.nd)
		if c.maskKind == 3 {
			mask = mask[:(c.nm+c.nd)/2]
		}
		for i := range mask {
			mask[i] = rng.Float64() < c.dropFrac
		}
	case 1, 2:
		mask = make([]bool, c.nm+c.nd)
		for i := range mask {
			mask[i] = c.maskKind == 2
		}
	}
	return m, d, mask
}

// check pins MergeColumnDrop to the scalar reference at Threads 1, 2 and 7,
// and every output to the invariants the next merge and a snapshot load
// presume (colstore.Main.Validate).
func (c step2Case) check(t *testing.T, rng *rand.Rand) {
	t.Helper()
	m, d, mask := c.build(rng)
	want := mergeColumnGCRef(m, d, mask)
	for _, nt := range []int{1, 2, 7} {
		got, st := MergeColumnDrop(m, d, NewDrop(mask, c.nm+c.nd), Options{Threads: nt})
		identicalMain(t, got, want)
		if err := got.Validate(); err != nil {
			t.Fatalf("%v nt=%d: %v", c, nt, err)
		}
		if st.Dropped != c.nm+c.nd-want.Len() {
			t.Fatalf("%v nt=%d: Dropped=%d, reference kept %d of %d", c, nt, st.Dropped, want.Len(), c.nm+c.nd)
		}
	}
}

// TestMergeGCDifferential runs whole merges — witness marking, composed
// tables, chunk location, kernel — against the scalar reference: sizes on
// both sides of the parallel threshold, empty main, empty delta, dictionaries
// that shrink, and every mask shape.
func TestMergeGCDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	big := parallelStep2Threshold
	for _, c := range []step2Case{
		{nm: 0, nd: 0, card: 1},
		{nm: 0, nd: 300, card: 40, dropFrac: 0.3},
		{nm: 300, nd: 0, card: 40, dropFrac: 0.3},
		{nm: 1, nd: 1, card: 1, dropFrac: 0.5},
		{nm: 2000, nd: 100, card: 1, dropFrac: 0.2},               // width 0 in, 1 out
		{nm: 2000, nd: 100, card: 1 << 40, dropFrac: 0.2},         // unique values: every drop shrinks the dictionary
		{nm: 5000, nd: 250, card: 700, widen: 13, dropFrac: 0.03}, // 23-bit codes narrow to 11
		{nm: big, nd: big / 20, card: 3, dropFrac: 0.025},
		{nm: big, nd: big / 20, card: 5000, widen: 7, dropFrac: 0.025},
		{nm: 3*big + 17, nd: big/2 + 3, card: 1 << 30, dropFrac: 0.4},
		{nm: 2 * big, nd: 9, card: 200, maskKind: 1},
		{nm: 2 * big, nd: 9, card: 200, maskKind: 2},
		{nm: 2 * big, nd: 999, card: 200, maskKind: 3, dropFrac: 0.5},
		{nm: 2 * big, nd: 999, card: 200, maskKind: 4},
		{nm: 2*big + 1, nd: 64, card: 1 << 13, maskKind: 3, dropFrac: 0.9},
	} {
		t.Run(c.String(), func(t *testing.T) { c.check(t, rng) })
	}
}

// step2Chunked runs the kernel the way mergeOptimized does, but chunked for
// nt workers whatever the size, and serially.
func step2Chunked(codes *bitpack.Vector, deltaCodes, tabM, tabD []uint32, drop Drop, bits uint, nt int) *bitpack.Vector {
	outTotal := codes.Len() + len(deltaCodes) - len(drop.Pos)
	out := bitpack.Make(bits, outTotal)
	bounds := alignedChunks(bits, outTotal, nt)
	// Last chunk first: chunks must not depend on their neighbours.
	for k := len(bounds) - 2; k >= 0; k-- {
		lo, hi := bounds[k], bounds[k+1]
		step2(codes, deltaCodes, tabM, tabD, drop.Mask, drop.survivor(lo), drop.survivor(hi), out.PackerAt(lo))
	}
	return out
}

// TestStep2KernelDifferential drives the kernel alone over every pair of
// input and output width in 0..32 — so codes straddle word boundaries on
// both sides at every phase — with random, empty, full and absent masks,
// split at every alignedChunks boundary for 1, 2 and 7 workers, against a
// Get / table loop whose codes packBits packs.
func TestStep2KernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nm, nd = 2*step2Block + 77, step2Block + 5
	for inBits := uint(0); inBits <= 32; inBits++ {
		for outBits := uint(0); outBits <= 32; outBits++ {
			cardIn, cardOut := 1+rng.Intn(1<<min(inBits, 12)), uint64(1)<<outBits
			if inBits > 0 {
				cardIn = max(cardIn, 2)
			}
			in := make([]uint64, nm)
			for i := range in {
				in[i] = uint64(rng.Intn(cardIn))
			}
			codes := packBits(inBits, in)
			deltaCodes := make([]uint32, nd)
			for i := range deltaCodes {
				deltaCodes[i] = uint32(rng.Intn(50))
			}
			tabM, tabD := make([]uint32, cardIn), make([]uint32, 50)
			for i := range tabM {
				tabM[i] = uint32(rng.Uint64() % cardOut)
			}
			for i := range tabD {
				tabD[i] = uint32(rng.Uint64() % cardOut)
			}
			for kind, frac := range []float64{-1, 0, 0.03, 0.5, 1} {
				var drop Drop // kind 0: no mask at all
				if kind > 0 {
					mask := make([]bool, nm+nd)
					for i := range mask {
						mask[i] = rng.Float64() < frac
					}
					drop = NewDrop(mask, nm+nd)
				}
				var out []uint64
				for i := 0; i < nm+nd; i++ {
					if drop.Mask != nil && drop.Mask[i] {
						continue
					}
					if i < nm {
						out = append(out, uint64(tabM[codes.Get(i)]))
					} else {
						out = append(out, uint64(tabD[deltaCodes[i-nm]]))
					}
				}
				want := packBits(outBits, out)
				for _, nt := range []int{1, 2, 7} {
					got := step2Chunked(codes, deltaCodes, tabM, tabD, drop, outBits, nt)
					if got.Len() != want.Len() || !slices.Equal(got.Words(), want.Words()) {
						t.Fatalf("in=%d out=%d mask kind %d nt=%d: packed words differ", inBits, outBits, kind, nt)
					}
				}
			}
		}
	}
}

// FuzzMergeStep2 feeds generated shapes to the merge differential.
func FuzzMergeStep2(f *testing.F) {
	f.Add(int64(1), uint16(1000), uint16(50), uint32(100), uint8(0), uint8(0), uint8(10))
	f.Add(int64(2), uint16(40000), uint16(2000), uint32(1<<20), uint8(9), uint8(3), uint8(128))
	f.Add(int64(3), uint16(0), uint16(17), uint32(1), uint8(0), uint8(2), uint8(0))
	f.Add(int64(4), uint16(20000), uint16(0), uint32(2), uint8(31), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nm, nd uint16, card uint32, widen, maskKind, dropFrac uint8) {
		c := step2Case{
			nm: int(nm), nd: int(nd), card: uint64(card) + 1, widen: uint(widen % 24),
			maskKind: maskKind % 5, dropFrac: float64(dropFrac) / 255,
		}
		c.check(t, rand.New(rand.NewSource(seed)))
	})
}

// BenchmarkMergeColumnGC measures one column's garbage-collecting merge on
// the merge_embedded shape — N_D = 5 % of N_M, half of the delta being new
// versions whose old ones, in the main, are reclaimed — at the code widths
// of Figure 4's cardinality classes.
func BenchmarkMergeColumnGC(b *testing.B) {
	const nm, nd = 1 << 20, (1 << 20) / 20
	for _, bits := range []uint{1, 5, 8, 13, 20} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(bits)))
			card := uint64(1) << bits
			mv := make([]uint64, nm)
			for i := range mv {
				mv[i] = rng.Uint64() % card
			}
			dv := make([]uint64, nd)
			for i := range dv {
				dv[i] = rng.Uint64() % card
			}
			m, d := buildColumn(mv, dv)
			mask := make([]bool, nm+nd)
			for k := 0; k < nd/2; k++ {
				mask[rng.Intn(nm)] = true
			}
			drop := NewDrop(mask, nm+nd)
			var st Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st = MergeColumnDrop(m, d, drop, Options{Threads: 1})
			}
			tuples := float64(nm + nd)
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(perOp*1e9/tuples, "ns/tuple")
			// Bytes the merge must move: codes read and codes written.
			moved := (float64(nm)*float64(st.BitsBefore) + (tuples-float64(st.Dropped))*float64(st.BitsAfter)) / 8
			b.ReportMetric(moved/perOp/1e6, "MB/s")
			b.ReportMetric(float64(st.Step1b.Nanoseconds())/tuples, "step1b-ns/tuple")
			b.ReportMetric(float64(st.Step2.Nanoseconds())/tuples, "step2-ns/tuple")
		})
	}
}
