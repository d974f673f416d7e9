package index

import (
	"math/rand"
	"sort"
	"testing"

	"hyrise/internal/bitpack"
)

// refEqual is the scalar scan reference: positions whose code equals c.
func refEqual(codes []uint64, c uint64) []int32 {
	var out []int32
	for i, x := range codes {
		if x == c {
			out = append(out, int32(i))
		}
	}
	return out
}

func refRange(codes []uint64, lo, hi uint64) []int32 {
	var out []int32
	for i, x := range codes {
		if x >= lo && x < hi {
			out = append(out, int32(i))
		}
	}
	return out
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuildDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, card := range []int{1, 2, 3, 7, 16, 255, 1 << 12} {
		for _, n := range []int{0, 1, 5, buildBlock - 1, buildBlock, buildBlock + 1, 3*buildBlock + 17} {
			codes := make([]uint64, n)
			for i := range codes {
				codes[i] = uint64(rng.Intn(card))
			}
			v := bitpack.FromSlice(bitpack.MinBits(card), codes)
			p := Build(v, card)
			if err := p.Validate(); err != nil {
				t.Fatalf("card=%d n=%d: %v", card, n, err)
			}
			if p.Rows() != n || p.Cardinality() != card {
				t.Fatalf("card=%d n=%d: got rows=%d card=%d", card, n, p.Rows(), p.Cardinality())
			}
			probes := []uint64{0, uint64(card) - 1, uint64(rng.Intn(card))}
			for _, c := range probes {
				got := p.Equal(c, nil)
				if want := refEqual(codes, c); !equalI32(got, want) {
					t.Fatalf("card=%d n=%d Equal(%d): got %v want %v", card, n, c, got, want)
				}
				if b := p.Bucket(c); !equalI32(b, refEqual(codes, c)) {
					t.Fatalf("card=%d n=%d Bucket(%d) mismatch", card, n, c)
				}
			}
			for trial := 0; trial < 4; trial++ {
				lo := uint64(rng.Intn(card))
				hi := lo + uint64(rng.Intn(card-int(lo))+1)
				got := p.Range(lo, hi, nil)
				if want := refRange(codes, lo, hi); !equalI32(got, want) {
					t.Fatalf("card=%d n=%d Range(%d,%d): got %v want %v", card, n, lo, hi, got, want)
				}
			}
		}
	}
}

func TestEqualAppendsToDst(t *testing.T) {
	v := bitpack.FromSlice(2, []uint64{1, 0, 1, 2})
	p := Build(v, 3)
	dst := []int32{99}
	dst = p.Equal(1, dst)
	if !equalI32(dst, []int32{99, 0, 2}) {
		t.Fatalf("got %v", dst)
	}
	dst = p.Range(0, 3, dst[:1])
	if !equalI32(dst, []int32{99, 0, 1, 2, 3}) {
		t.Fatalf("range got %v", dst)
	}
}

func TestBucketOutOfRange(t *testing.T) {
	p := Build(bitpack.FromSlice(1, []uint64{0, 1}), 2)
	if got := p.Bucket(7); got != nil {
		t.Fatalf("Bucket(7) = %v, want nil", got)
	}
	if got := p.Range(5, 9, nil); len(got) != 0 {
		t.Fatalf("Range(5,9) = %v, want empty", got)
	}
	if got := p.Range(1, 1, nil); len(got) != 0 {
		t.Fatalf("Range(1,1) = %v, want empty", got)
	}
}

func TestZeroWidthVector(t *testing.T) {
	// A single-value dictionary packs at zero bits; every row is code 0.
	p := Build(bitpack.Make(0, 10), 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	got := p.Equal(0, nil)
	want := make([]int32, 10)
	for i := range want {
		want[i] = int32(i)
	}
	if !equalI32(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestRangeSortedAfterMultiBucket(t *testing.T) {
	// Interleave codes so concatenated buckets are unsorted pre-sort.
	codes := []uint64{2, 0, 1, 2, 0, 1, 0}
	p := Build(bitpack.FromSlice(2, codes), 3)
	got := p.Range(0, 2, nil)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("not sorted: %v", got)
	}
	if want := refRange(codes, 0, 2); !equalI32(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}
