// Package bitpack implements fixed-width bit-packed integer vectors.
//
// The main partition of every column stores dictionary codes packed at
// E_C = ceil(log2(|dict|)) bits per code (paper §3, §5.2).  A vector has one
// construction path and one decoder: Make allocates it zeroed at its final
// length, Packers (PackerAt) fill it a block at a time before it is
// published, DecodeRange block-decodes it and Get reads one code.
//
// Widths from 0 to 64 bits are supported.  Width 0 is the degenerate case of
// a single-value dictionary: all codes are zero and no storage is consumed.
package bitpack

import (
	"fmt"
	"math/bits"
)

// WordBits is the size of the backing machine word in bits.
const WordBits = 64

// MinBits returns the number of bits required to store codes for a
// dictionary with n entries, i.e. ceil(log2(n)) clamped to [0, 64].
// n <= 1 requires 0 bits (every code is 0).
func MinBits(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len64(uint64(n - 1)))
}

// Vector is a densely bit-packed vector of unsigned integer codes, each
// stored in exactly Bits() bits.  The zero value is an empty vector of
// width 0; use Make to choose a width and length.
type Vector struct {
	words []uint64
	n     int
	bits  uint
}

// Make returns a vector of n zero codes of the given width, holding exactly
// ceil(n*width/64) words, for Packers to fill.  It panics if width > 64 or
// n < 0.
func Make(width uint, n int) *Vector {
	if width > WordBits || n < 0 {
		panic(fmt.Sprintf("bitpack: cannot make %d codes of width %d (range [0,64])", n, width))
	}
	return &Vector{words: make([]uint64, wordsFor(width, n)), n: n, bits: width}
}

// FromSlice packs codes at the given width.  It panics if any code does not
// fit in width bits.
func FromSlice(width uint, codes []uint64) *Vector {
	v := Make(width, len(codes))
	p := v.PackerAt(0)
	p.Put(codes)
	p.Flush()
	return v
}

// wordsFor returns the number of 64-bit words needed to hold n elements of
// the given width.
func wordsFor(width uint, n int) int {
	if width == 0 || n == 0 {
		return 0
	}
	totalBits := uint64(n) * uint64(width)
	return int((totalBits + WordBits - 1) / WordBits)
}

// Len returns the number of elements.
func (v *Vector) Len() int { return v.n }

// Bits returns the per-element width in bits.
func (v *Vector) Bits() uint { return v.bits }

// MaxCode returns the largest code representable at the vector's width.
func (v *Vector) MaxCode() uint64 {
	if v.bits == 0 {
		return 0
	}
	if v.bits == WordBits {
		return ^uint64(0)
	}
	return (1 << v.bits) - 1
}

// SizeBytes returns the memory consumed by the packed payload.
func (v *Vector) SizeBytes() int { return len(v.words) * 8 }

// Words exposes the backing words: exactly ceil(Len()*Bits()/64) of them,
// with the bits past Len()*Bits() zero.  Every vector this package builds is
// made at its length and filled only by Packers, so this holds for all of
// them; only FromWords can wrap words that break it, which is why
// colstore.FromParts checks both first.
func (v *Vector) Words() []uint64 { return v.words }

// FromWords wraps words as a vector of n codes of the given width — the
// inverse of Words — retaining the slice and checking nothing: a vector
// whose width exceeds 64 or whose words are not ceil(n*width/64) in number
// panics on access.  colstore.FromParts checks them first.
func FromWords(width uint, n int, words []uint64) *Vector {
	return &Vector{words: words, n: n, bits: width}
}

// Get returns element i.  It panics if i is out of range.
func (v *Vector) Get(i int) uint64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, v.n))
	}
	if v.bits == 0 {
		return 0
	}
	bitPos := uint64(i) * uint64(v.bits)
	word := bitPos / WordBits
	off := uint(bitPos % WordBits)
	lo := v.words[word] >> off
	rem := WordBits - off
	if rem >= v.bits {
		return lo & v.mask()
	}
	hi := v.words[word+1] << rem
	return (lo | hi) & v.mask()
}

func (v *Vector) mask() uint64 {
	if v.bits == WordBits {
		return ^uint64(0)
	}
	return (1 << v.bits) - 1
}

// DecodeRange decodes elements [from, to) into dst, reusing dst's backing
// array when it has sufficient capacity, and returns dst resliced to
// exactly to-from elements.  It is the allocation-free block decode used by
// the scan kernels (internal/kernel): callers keep one scratch buffer per
// scan instead of re-decoding whole columns or paying per-row Get.  It
// panics if the range is out of bounds.
func (v *Vector) DecodeRange(from, to int, dst []uint64) []uint64 {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("bitpack: DecodeRange [%d,%d) out of range [0,%d]", from, to, v.n))
	}
	n := to - from
	if cap(dst) < n {
		dst = make([]uint64, n)
	} else {
		dst = dst[:n]
	}
	if v.bits == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	if n == 0 {
		return dst
	}
	// cur holds the undecoded bits of the current word, avail of them: a
	// code inside the word costs a mask and a shift, and the next word is
	// loaded only when a code straddles into it.
	mask, bits := v.mask(), v.bits
	pos := uint64(from) * uint64(bits)
	word, off := int(pos/WordBits), uint(pos%WordBits)
	cur, avail := v.words[word]>>off, WordBits-off
	for i := range dst {
		if avail >= bits {
			dst[i] = cur & mask
			cur >>= bits
			avail -= bits
			continue
		}
		word++
		next := v.words[word]
		dst[i] = (cur | next<<avail) & mask
		cur = next >> (bits - avail)
		avail += WordBits - bits
	}
	return dst
}

// Packer is the one encoder: a sequential block cursor into a vector made
// by Make.  Codes are shifted into a register accumulator and stored one
// whole word at a time, so packing costs a shift, an or and an add per code.
// The merge's Step 2 packs every output chunk through one (paper Eq. 11).
//
// A Packer owns the words from the one holding its start position up to
// the last it stores, so Packers running concurrently must start on word
// boundaries; only the one that ends at the vector's tail may end inside a
// word.  The vector's length was fixed by Make: once every Packer has
// flushed, the vector is complete.
type Packer struct {
	words []uint64
	bits  uint
	max   uint64
	word  int    // index of the word acc is stored to when it fills
	acc   uint64 // bits of the current word packed so far
	fill  uint   // how many; always < WordBits
}

// PackerAt returns a Packer whose first code lands at element index i,
// 0 <= i <= Len().  It panics if i is out of range.
func (v *Vector) PackerAt(i int) Packer {
	if i < 0 || i > v.n {
		panic(fmt.Sprintf("bitpack: PackerAt(%d) out of range [0,%d]", i, v.n))
	}
	p := Packer{words: v.words, bits: v.bits, max: v.MaxCode()}
	bitPos := uint64(i) * uint64(v.bits)
	p.word, p.fill = int(bitPos/WordBits), uint(bitPos%WordBits)
	if p.fill != 0 {
		p.acc = v.words[p.word] & (1<<p.fill - 1)
	}
	return p
}

// Put packs codes at the cursor and advances it.  Whether the codes fit the
// width is checked once per call, on the or of all of them: it panics if any
// code does not fit, after packing the block.
func (p *Packer) Put(codes []uint64) {
	acc, fill, word := p.acc, p.fill, p.word
	var all uint64
	for _, c := range codes {
		all |= c
		acc |= c << fill
		if fill += p.bits; fill >= WordBits {
			p.words[word] = acc
			word++
			fill -= WordBits
			acc = c >> (p.bits - fill) // the high bits that did not fit
		}
	}
	if all > p.max {
		panic(fmt.Sprintf("bitpack: a code in the block does not fit in %d bits", p.bits))
	}
	p.acc, p.fill, p.word = acc, fill, word
}

// Flush stores the partly filled last word, if any.
func (p *Packer) Flush() {
	if p.fill != 0 {
		p.words[p.word] = p.acc
	}
}
