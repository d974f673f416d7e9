// Package colstore implements the read-optimized main partition of a
// column (paper §3): a sorted dictionary plus a bit-packed code vector at
// E_C = ceil(log2 |U_M|) bits per tuple.
//
// A read binary-searches the dictionary once (random access) to bind its
// value, or value range, to one code interval — the encoding preserves
// order — and then scans the code vector (sequential access) for it with
// the kernels of internal/kernel, or reads the attached group-key index.
package colstore

import (
	"fmt"

	"hyrise/internal/bitpack"
	"hyrise/internal/dict"
	"hyrise/internal/index"
	"hyrise/internal/val"
)

// Main is an immutable main partition.  Build one with FromValues, via the
// merge process in internal/core, or from a snapshot's parts with FromParts.
//
// A Main may optionally carry a group-key index (internal/index) attached
// with SetIndex; the payload (dict, codes) is immutable either way, and
// after the index is attached the Main as a whole must be treated as
// immutable — the merge builds the next main's index before publication,
// and table.CreateIndex attaches one under the table write lock.
type Main[V val.Value] struct {
	dict  *dict.Dict[V]
	codes *bitpack.Vector
	idx   *index.Postings
}

// New wraps an existing dictionary and code vector.  The vector's width
// must accommodate the dictionary cardinality.
func New[V val.Value](d *dict.Dict[V], codes *bitpack.Vector) *Main[V] {
	if want := bitpack.MinBits(d.Len()); codes.Bits() < want {
		panic(fmt.Sprintf("colstore: %d-bit codes cannot address %d dictionary entries", codes.Bits(), d.Len()))
	}
	return &Main[V]{dict: d, codes: codes}
}

// Empty returns a main partition with no tuples and an empty dictionary.
func Empty[V val.Value]() *Main[V] {
	return &Main[V]{dict: dict.FromSorted[V](nil), codes: bitpack.Make(0, 0)}
}

// FromValues dictionary-compresses values into a main partition.
func FromValues[V val.Value](values []V) *Main[V] {
	d := dict.FromUnsorted(values)
	codes := make([]uint64, len(values))
	for i, v := range values {
		code, ok := d.Lookup(v)
		if !ok {
			panic("colstore: dictionary misses its own value")
		}
		codes[i] = uint64(code)
	}
	return &Main[V]{dict: d, codes: bitpack.FromSlice(bitpack.MinBits(d.Len()), codes)}
}

// Len returns the tuple count (N_M).
func (m *Main[V]) Len() int { return m.codes.Len() }

// Dict returns the sorted dictionary (U_M).
func (m *Main[V]) Dict() *dict.Dict[V] { return m.dict }

// Codes returns the bit-packed code vector.
func (m *Main[V]) Codes() *bitpack.Vector { return m.codes }

// Bits returns the compressed value-length E_C in bits.
func (m *Main[V]) Bits() uint { return m.codes.Bits() }

// At materializes the value of tuple i (one code fetch plus one dictionary
// access — the "forced materialization" cost the paper charges to reads
// against compressed storage).
func (m *Main[V]) At(i int) V { return m.dict.At(int(m.codes.Get(i))) }

// SetIndex attaches a group-key index built over this main's code vector.
// The index must have been built from exactly this vector (Rows and
// Cardinality must agree); it panics otherwise.  Pass nil to detach.
func (m *Main[V]) SetIndex(p *index.Postings) {
	if p != nil && (p.Rows() != m.codes.Len() || p.Cardinality() != m.dict.Len()) {
		panic(fmt.Sprintf("colstore: index shape %dx%d does not match main %dx%d",
			p.Rows(), p.Cardinality(), m.codes.Len(), m.dict.Len()))
	}
	m.idx = p
}

// Index returns the attached group-key index, or nil if the main is
// unindexed.
func (m *Main[V]) Index() *index.Postings { return m.idx }

// BuildIndex builds and attaches a group-key index over the code vector.
func (m *Main[V]) BuildIndex() {
	m.SetIndex(index.Build(m.codes, m.dict.Len()))
}

// SizeBytes returns payload memory: packed codes plus dictionary values.
func (m *Main[V]) SizeBytes() int {
	return m.codes.SizeBytes() + m.dict.SizeBytes()
}

// FromParts assembles a main partition from the parts it exposes — the
// sorted dictionary values, the code width, the tuple count and the packed
// words (Dict().Values(), Bits(), Len(), Codes().Words()) — as a snapshot
// ships them.  The parts are checked as Validate checks a main before
// anything is built from them, so input that is not a main fails with an
// error, never a panic.  The slices are retained, not copied.
func FromParts[V val.Value](values []V, width uint, rows int, words []uint64) (*Main[V], error) {
	codes := bitpack.FromWords(width, rows, words)
	if err := validate(values, codes); err != nil {
		return nil, err
	}
	return &Main[V]{dict: dict.FromSorted(values), codes: codes}, nil
}

// Validate checks the invariants every main partition satisfies and the
// merge presumes (core.MergeColumnDrop): the dictionary is strictly
// increasing, the codes are E_C = MinBits(|dict|) wide, packed in exactly
// ceil(N_M*E_C/64) words whose bits past the last code are zero, every code
// addresses the dictionary and every dictionary entry is used by a tuple.
func (m *Main[V]) Validate() error { return validate(m.dict.Values(), m.codes) }

// validate is Validate over the parts, ordered so that no check touches a
// word an earlier check has not shown to exist; the codes are decoded 1024
// at a time.
func validate[V val.Value](values []V, codes *bitpack.Vector) error {
	n, width := codes.Len(), codes.Bits()
	if want := bitpack.MinBits(len(values)); width != want {
		return fmt.Errorf("colstore: %d-bit codes for %d dictionary entries, want %d bits", width, len(values), want)
	}
	words := codes.Words()
	bits := uint64(n) * uint64(width)
	if n < 0 || uint64(len(words)) != (bits+bitpack.WordBits-1)/bitpack.WordBits {
		return fmt.Errorf("colstore: %d words for %d %d-bit codes", len(words), n, width)
	}
	if tail := bits % bitpack.WordBits; tail != 0 && words[len(words)-1]>>tail != 0 {
		return fmt.Errorf("colstore: padding bits past code %d are set", n)
	}
	for i := 1; i < len(values); i++ {
		if values[i-1] >= values[i] {
			return fmt.Errorf("colstore: dictionary not strictly increasing at %d", i)
		}
	}
	used, unused := make([]bool, len(values)), len(values)
	var buf [1024]uint64
	for from := 0; from < n; from += len(buf) {
		for _, c := range codes.DecodeRange(from, min(from+len(buf), n), buf[:]) {
			if c >= uint64(len(values)) {
				return fmt.Errorf("colstore: code %d out of dictionary range %d", c, len(values))
			}
			if !used[c] {
				used[c] = true
				unused--
			}
		}
	}
	if unused != 0 {
		return fmt.Errorf("colstore: %d of %d dictionary entries used by no tuple", unused, len(values))
	}
	return nil
}
