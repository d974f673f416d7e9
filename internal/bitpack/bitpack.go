// Package bitpack implements fixed-width bit-packed integer vectors.
//
// The main partition of every column stores dictionary codes packed at
// E_C = ceil(log2(|dict|)) bits per code (paper §3, §5.2).  Vector supports
// random access (Get/Set), amortized O(1) Append, and sequential Reader /
// Writer cursors used by the merge inner loops, where decoding positionally
// is measurably cheaper than recomputing word/bit offsets per element.
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
// width 0; use New to choose a width.
type Vector struct {
	words []uint64
	n     int
	bits  uint
}

// New returns an empty Vector that stores each code in width bits and has
// capacity for at least capacity elements.  It panics if width > 64.
func New(width uint, capacity int) *Vector {
	if width > WordBits {
		panic(fmt.Sprintf("bitpack: width %d out of range [0,64]", width))
	}
	if capacity < 0 {
		capacity = 0
	}
	return &Vector{
		words: make([]uint64, 0, wordsFor(width, capacity)),
		bits:  width,
	}
}

// FromSlice packs codes at the given width.  It panics if any code does not
// fit in width bits.
func FromSlice(width uint, codes []uint64) *Vector {
	v := New(width, len(codes))
	for _, c := range codes {
		v.Append(c)
	}
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

// Words exposes the backing words.  A vector built by FromSlice, Append or
// a Writer filled to the length it was made for holds exactly
// ceil(Len()*Bits()/64) words, and the bits past Len()*Bits() are zero;
// colstore.Main.Validate checks both on a main partition.
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

// Set overwrites element i.  It panics if i is out of range or code does not
// fit in the vector width.
func (v *Vector) Set(i int, code uint64) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, v.n))
	}
	v.checkFits(code)
	if v.bits == 0 {
		return
	}
	bitPos := uint64(i) * uint64(v.bits)
	word := bitPos / WordBits
	off := uint(bitPos % WordBits)
	mask := v.mask()
	v.words[word] = v.words[word]&^(mask<<off) | code<<off
	rem := WordBits - off
	if rem < v.bits {
		hiMask := mask >> rem
		v.words[word+1] = v.words[word+1]&^hiMask | code>>rem
	}
}

// Append adds code at the end.  It panics if code does not fit.
func (v *Vector) Append(code uint64) {
	v.checkFits(code)
	if v.bits != 0 {
		need := wordsFor(v.bits, v.n+1)
		for len(v.words) < need {
			v.words = append(v.words, 0)
		}
	}
	v.n++
	if v.bits != 0 {
		v.Set(v.n-1, code)
	}
}

func (v *Vector) checkFits(code uint64) {
	if v.bits < WordBits && code > v.MaxCode() {
		panic(fmt.Sprintf("bitpack: code %d does not fit in %d bits", code, v.bits))
	}
}

func (v *Vector) mask() uint64 {
	if v.bits == WordBits {
		return ^uint64(0)
	}
	return (1 << v.bits) - 1
}

// Decode appends all elements to dst and returns the extended slice.
func (v *Vector) Decode(dst []uint64) []uint64 {
	r := v.Reader()
	for i := 0; i < v.n; i++ {
		dst = append(dst, r.Next())
	}
	return dst
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

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	w := &Vector{words: make([]uint64, len(v.words)), n: v.n, bits: v.bits}
	copy(w.words, v.words)
	return w
}

// Reader is a sequential decoding cursor over a Vector.  It is substantially
// faster than repeated Get calls in merge loops because the word index and
// intra-word offset advance incrementally.
type Reader struct {
	words []uint64
	bits  uint
	mask  uint64
	pos   uint64 // absolute bit position
	n     int
	idx   int
}

// Reader returns a cursor positioned at element 0.
func (v *Vector) Reader() *Reader {
	return &Reader{words: v.words, bits: v.bits, mask: v.mask(), n: v.n}
}

// ReaderAt returns a cursor positioned at element i, 0 <= i <= Len().
// Parallel merge workers use it to stream disjoint chunks concurrently.
func (v *Vector) ReaderAt(i int) *Reader {
	if i < 0 || i > v.n {
		panic(fmt.Sprintf("bitpack: ReaderAt(%d) out of range [0,%d]", i, v.n))
	}
	return &Reader{
		words: v.words, bits: v.bits, mask: v.mask(), n: v.n,
		idx: i, pos: uint64(i) * uint64(v.bits),
	}
}

// Remaining reports how many elements are left.
func (r *Reader) Remaining() int { return r.n - r.idx }

// Next decodes and returns the next element.  It panics past the end.
func (r *Reader) Next() uint64 {
	if r.idx >= r.n {
		panic("bitpack: Reader.Next past end")
	}
	r.idx++
	if r.bits == 0 {
		return 0
	}
	word := r.pos / WordBits
	off := uint(r.pos % WordBits)
	r.pos += uint64(r.bits)
	lo := r.words[word] >> off
	rem := WordBits - off
	if rem >= r.bits {
		return lo & r.mask
	}
	return (lo | r.words[word+1]<<rem) & r.mask
}

// Writer is a sequential append-only encoder.  The merge Step 2(b) writes
// the whole output column through a Writer (paper Eq. 11): allocate once
// with the exact output cardinality and stream codes in.
type Writer struct {
	vec *Vector
	pos uint64
}

// NewWriter returns a Writer over a fresh Vector of the given width,
// preallocated for n elements.
func NewWriter(width uint, n int) *Writer {
	v := New(width, n)
	v.words = v.words[:wordsFor(width, n)]
	return &Writer{vec: v}
}

// Write appends code.  It panics if code does not fit in the width.
func (w *Writer) Write(code uint64) {
	v := w.vec
	v.checkFits(code)
	if v.bits == 0 {
		v.n++
		return
	}
	word := w.pos / WordBits
	off := uint(w.pos % WordBits)
	if int(word) >= len(v.words) {
		v.words = append(v.words, 0)
	}
	v.words[word] |= code << off
	rem := WordBits - off
	if rem < v.bits {
		if int(word)+1 >= len(v.words) {
			v.words = append(v.words, 0)
		}
		v.words[word+1] |= code >> rem
	}
	w.pos += uint64(v.bits)
	v.n++
}

// WriteAt encodes code at element index i without moving the cursor.  The
// parallel Step 2 uses WriteAt from disjoint element ranges; ranges must not
// share a 64-bit word unless the caller serializes access (see ChunkAlign).
func (w *Writer) WriteAt(i int, code uint64) {
	v := w.vec
	v.checkFits(code)
	if v.bits == 0 {
		return
	}
	bitPos := uint64(i) * uint64(v.bits)
	word := bitPos / WordBits
	off := uint(bitPos % WordBits)
	v.words[word] |= code << off
	rem := WordBits - off
	if rem < v.bits {
		v.words[word+1] |= code >> rem
	}
}

// Vector finalizes and returns the underlying vector.  For Writers created
// with NewWriter(width, n) where fewer than n elements were written via
// Write, the length reflects the number of Write calls; after WriteAt-style
// population, call SetLen first.
func (w *Writer) Vector() *Vector { return w.vec }

// SetLen declares the logical length after random-order WriteAt population.
func (w *Writer) SetLen(n int) { w.vec.n = n }

// Packer is a sequential block encoder into a Writer's vector: codes are
// shifted into a register accumulator and stored one whole word at a time,
// so packing costs a shift, an or and an add per code instead of WriteAt's
// read-modify-write of one or two words.  The merge's Step 2 kernel packs
// every output chunk through one (paper Eq. 11).
//
// A Packer owns the words from the one holding its start position up to
// the last it stores, so Packers running concurrently must start on word
// boundaries (see ChunkAlign); only the one that ends at the vector's tail
// may end inside a word.  The Writer's length is not advanced: call SetLen
// once every Packer has flushed.
type Packer struct {
	words []uint64
	bits  uint
	max   uint64
	word  int    // index of the word acc is stored to when it fills
	acc   uint64 // bits of the current word packed so far
	fill  uint   // how many; always < WordBits
}

// PackerAt returns a Packer whose first code lands at element index i.
func (w *Writer) PackerAt(i int) Packer {
	v := w.vec
	p := Packer{words: v.words, bits: v.bits, max: v.MaxCode()}
	bitPos := uint64(i) * uint64(v.bits)
	p.word, p.fill = int(bitPos/WordBits), uint(bitPos%WordBits)
	if p.fill != 0 {
		p.acc = v.words[p.word] & (1<<p.fill - 1)
	}
	return p
}

// Put packs codes at the cursor and advances it.  Whether the codes fit the
// width is checked once per call, on the or of all of them, so it panics on
// the same inputs as Write, after the block instead of at the code.
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

// ChunkAlign returns the largest element count <= n such that a chunk of
// that many elements ends exactly on a 64-bit word boundary, guaranteeing
// two adjacent chunks never share a word.  For width 0 it returns n.
func ChunkAlign(width uint, n int) int {
	if width == 0 || n == 0 {
		return n
	}
	g := WordBits / gcd(int(width), WordBits) // elements per aligned group
	if n < g {
		return n
	}
	return n - n%g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
