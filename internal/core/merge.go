// Package core implements the paper's primary contribution: the merge
// process that combines a column's compressed main partition with its
// uncompressed delta partition into a new compressed main partition
// (paper §5 and §6).
//
// Three variants are provided, all selected through Options:
//
//   - Naive (§5.1–5.2): Step 1 builds the merged dictionary without
//     auxiliary structures; Step 2 recomputes every tuple's code by
//     materializing through the old dictionary and binary-searching the new
//     one — O(N_M + (N_M+N_D)·log|U'_M|) (Equation 5).
//   - Optimized (§5.3): Step 1(a) rewrites the delta to codes during the
//     CSB+ leaf traversal; Step 1(b) additionally emits the translation
//     tables X_M and X_D; Step 2 becomes a table lookup per tuple
//     (Equation 11) — O(N_M + N_D + |U_M| + |U_D|) (Equation 6).
//   - Either variant runs single-threaded or parallelized (§6.2): the
//     optimized Step 1(b) uses the three-phase co-ranked merge, and Step 2
//     splits the output into word-aligned chunks, all run through the
//     process's one pool (internal/par).
//
// Each variant's Step 2 exists once, as a chunk body: it block-decodes the
// main's codes, translates each — the optimized step2 through one table,
// the naive one through the old dictionary and a binary search of the new —
// and packs the results through a bitpack.Packer, which stores a word at a
// time.  A serial merge runs it over the whole column as one chunk.
//
// A garbage-collecting merge (MergeColumnDrop) is the same algorithm with a
// Drop: before Step 1(b) it finds the dictionary entries no surviving tuple
// references — by collecting the codes at the dropped positions and
// scanning for one surviving witness of each, not by decoding every tuple
// — and the one dictionary merge leaves their values out while it writes
// X_M and X_D, so Step 2 still does one lookup per tuple, and step2 skips
// the dropped positions.
//
// MergeColumn returns the new main partition; the input main and delta are
// not modified, which is what allows the table layer to run the merge
// online against a snapshot while new writes accumulate in a second delta
// (paper §3).
package core

import (
	"fmt"
	"runtime"
	"time"

	"hyrise/internal/bitpack"
	"hyrise/internal/colstore"
	"hyrise/internal/delta"
	"hyrise/internal/dict"
	"hyrise/internal/par"
	"hyrise/internal/val"
)

// Algorithm selects the merge variant.
type Algorithm int

const (
	// Optimized is the paper's linear-time algorithm with auxiliary
	// translation tables (§5.3).
	Optimized Algorithm = iota
	// Naive is the baseline algorithm whose Step 2 performs a dictionary
	// materialization plus binary search per tuple (§5.2).
	Naive
)

// String returns the variant name used in experiment output.
func (a Algorithm) String() string {
	switch a {
	case Optimized:
		return "optimized"
	case Naive:
		return "naive"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a merge.
type Options struct {
	// Algorithm selects Naive or Optimized; the zero value is Optimized.
	Algorithm Algorithm
	// Threads is the merge's budget N_T of pieces; values <= 1 run the
	// merge on the caller's goroutine, 0 means runtime.GOMAXPROCS(0).  The
	// pieces run through par.Do, so at most GOMAXPROCS−1 of them run beside
	// the caller at once, whatever the budget.
	Threads int
}

// EffectiveThreads resolves the Threads field.
func (o Options) EffectiveThreads() int {
	if o.Threads == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// Stats records the outcome and per-step timings of one column merge.
// Durations follow the paper's step naming (§5): Step 1(a) delta dictionary
// extraction, Step 1(b) dictionary merge, Step 2 compressed-value update.
type Stats struct {
	// Algorithm is the variant that ran: a merge that drops tuples runs
	// Optimized whatever Options.Algorithm asked for.
	Algorithm Algorithm
	Threads   int

	NM, ND       int // tuples in main / delta before the merge
	UniqueMain   int // |U_M|
	UniqueDelta  int // |U_D|
	UniqueMerged int // |U'_M|

	BitsBefore uint // E_C
	BitsAfter  uint // E'_C
	ValueBytes int  // E_j (16 assumed for variable-length values)

	// Dropped counts tuples reclaimed by a garbage-collecting merge
	// (MergeColumnDrop); 0 for plain merges.
	Dropped int

	Step1a, Step1b, Step2 time.Duration
}

// Step1 returns the combined dictionary phase duration.
func (s Stats) Step1() time.Duration { return s.Step1a + s.Step1b }

// Total returns the full merge duration T_M for this column.
func (s Stats) Total() time.Duration { return s.Step1a + s.Step1b + s.Step2 }

// CyclesPerTuple converts a duration to the paper's "update cost" unit:
// amortized CPU cycles per tuple at the given clock rate, over N_M + N_D
// tuples (§7).
func (s Stats) CyclesPerTuple(d time.Duration, hz float64) float64 {
	tuples := float64(s.NM + s.ND)
	if tuples == 0 {
		return 0
	}
	return d.Seconds() * hz / tuples
}

// MergeColumn merges one column's main and delta partitions into a new
// main partition (the inputs are left untouched).  The delta may be empty;
// the result is then a re-encoded copy of the main partition.
func MergeColumn[V val.Value](m *colstore.Main[V], d *delta.Partition[V], opts Options) (*colstore.Main[V], Stats) {
	return MergeColumnDrop(m, d, Drop{}, opts)
}

// MergeColumnDrop is MergeColumn with garbage collection: the positions of
// main ++ delta listed in drop are omitted from the new main partition, and
// dictionary values referenced only by them are omitted from the merged
// dictionary.  drop must cover exactly m.Len()+d.Len() positions (or be the
// zero Drop); the table layer builds one per merge with DropAt and shares
// it between all columns.  The inputs are left untouched, exactly as in
// MergeColumn, so the table layer can still run the merge online.
//
// A merge that drops something always runs the optimized algorithm; it
// stays linear — O(N_M + N_D + |U_M| + |U_D|) — and with Options.Threads > 1
// and enough tuples its Step 2 is range-partitioned like MergeColumn's.
// It presumes what colstore.Main.Validate checks — and the tests assert of
// every main this package builds — of its input: each dictionary entry is
// referenced by at least one tuple.
func MergeColumnDrop[V val.Value](m *colstore.Main[V], d *delta.Partition[V], drop Drop, opts Options) (*colstore.Main[V], Stats) {
	nt := opts.EffectiveThreads()
	st := Stats{
		Algorithm:  Optimized,
		Threads:    nt,
		NM:         m.Len(),
		ND:         d.Len(),
		UniqueMain: m.Dict().Len(),
		BitsBefore: m.Bits(),
		ValueBytes: valueBytes[V](),
		Dropped:    len(drop.Pos),
	}
	if opts.Algorithm == Naive && st.Dropped == 0 {
		st.Algorithm = Naive
		return mergeNaive(m, d, nt, &st), st
	}
	return mergeOptimized(m, d, drop, nt, &st), st
}

func valueBytes[V val.Value]() int {
	if n := val.FixedSize[V](); n > 0 {
		return n
	}
	return 16
}

// mergeOptimized is the paper's linear-time merge (§5.3, parallelized per
// §6.2), omitting the positions in drop.
func mergeOptimized[V val.Value](m *colstore.Main[V], d *delta.Partition[V], drop Drop, nt int, st *Stats) *colstore.Main[V] {
	// Step 1(a): delta dictionary + delta code rewrite via CSB+ traversal.
	t0 := time.Now()
	dictD, deltaCodes := d.ExtractDictParallel(nt)
	st.Step1a = time.Since(t0)
	st.UniqueDelta = dictD.Len()

	// Step 1(b): one merge of the dictionaries that writes U'_M, X_M and
	// X_D.  With a drop it leaves out the values no surviving tuple
	// references, so Step 2 pays one lookup per tuple either way.
	t0 = time.Now()
	var deadM, deadD []bool
	if st.Dropped > 0 {
		deadM, deadD = unreferenced(m.Codes(), deltaCodes, m.Dict().Len(), dictD.Len(), drop)
	}
	dictNT := nt
	if m.Dict().Len()+dictD.Len() < parallelDictThreshold {
		dictNT = 1
	}
	res := dict.Merge(m.Dict(), dictD, deadM, deadD, dictNT)
	st.Step1b = time.Since(t0)
	st.UniqueMerged = res.Merged.Len()
	total := m.Len() + d.Len()
	outTotal := total - st.Dropped
	if outTotal == 0 {
		return colstore.Empty[V]()
	}

	// Step 2(a): new compressed value-length (Equation 4).
	bits := bitpack.MinBits(res.Merged.Len())
	st.BitsAfter = bits

	// Step 2(b): rewrite codes via translation-table lookups (Equation 11).
	// The output is split at word-aligned boundaries; a chunk's input range
	// runs from its first survivor to the next chunk's.
	t0 = time.Now()
	out := bitpack.Make(bits, outTotal)
	bounds := []int{0, outTotal}
	if nt > 1 && total >= parallelStep2Threshold {
		bounds = alignedChunks(bits, outTotal, nt)
	}
	par.Do(len(bounds)-1, func(k int) {
		lo, hi := bounds[k], bounds[k+1]
		step2(m.Codes(), deltaCodes, res.XM, res.XD, drop.Mask, drop.survivor(lo), drop.survivor(hi), out.PackerAt(lo))
	})
	st.Step2 = time.Since(t0)
	return colstore.New(res.Merged, out)
}

// step2Block is how many codes step2 decodes, translates and packs at a
// time: 8 KiB of scratch, resident in L1 between the three passes.
const step2Block = 1024

// step2 is the one Step 2 loop: it rewrites input positions [lo, hi) of
// main ++ delta — codes below codes.Len() come from the packed main and map
// through tabM, the rest from deltaCodes through tabD — skipping positions
// set in mask (nil = keep all), and packs the results at p's cursor.
func step2(codes *bitpack.Vector, deltaCodes, tabM, tabD []uint32, mask []bool, lo, hi int, p bitpack.Packer) {
	nm := codes.Len()
	var buf [step2Block]uint64
	for i := lo; i < hi; {
		var blk []uint64
		tab := tabM
		if i < nm {
			blk = codes.DecodeRange(i, min(i+step2Block, hi, nm), buf[:])
		} else {
			tab = tabD
			blk = buf[:min(step2Block, hi-i)]
			for j, c := range deltaCodes[i-nm : i-nm+len(blk)] {
				blk[j] = uint64(c)
			}
		}
		n := len(blk)
		if mask == nil {
			for j, c := range blk {
				blk[j] = uint64(tab[c])
			}
		} else {
			n = 0
			for j, dropped := range mask[i : i+len(blk)] {
				blk[n] = uint64(tab[blk[j]])
				if !dropped {
					n++
				}
			}
		}
		p.Put(blk[:n])
		i += len(blk)
	}
	p.Flush()
}

// mergeNaive is the baseline (§5.1–5.2): no auxiliary structures; Step 2
// pays a dictionary materialization plus a binary search per tuple.
func mergeNaive[V val.Value](m *colstore.Main[V], d *delta.Partition[V], nt int, st *Stats) *colstore.Main[V] {
	// Step 1(a): delta dictionary only (leaf traversal, no rewrite).
	t0 := time.Now()
	dictD := dict.FromSorted(d.SortedUnique())
	st.Step1a = time.Since(t0)
	st.UniqueDelta = dictD.Len()

	// Step 1(b): dictionary merge without translation tables.
	t0 = time.Now()
	merged := dict.MergeNoAux(m.Dict(), dictD)
	st.Step1b = time.Since(t0)
	st.UniqueMerged = merged.Len()

	bits := bitpack.MinBits(merged.Len())
	st.BitsAfter = bits

	// Step 2(b): per-tuple materialization and binary search (Equation 5),
	// over the same word-aligned output chunks as the optimized Step 2.
	t0 = time.Now()
	nm, total := m.Len(), m.Len()+d.Len()
	out := bitpack.Make(bits, total)
	bounds := []int{0, total}
	if nt > 1 && total >= parallelStep2Threshold {
		bounds = alignedChunks(bits, total, nt)
	}
	oldDict, deltaVals := m.Dict(), d.Values()
	lookup := func(v V) uint64 {
		c, ok := merged.Lookup(v)
		if !ok {
			panic("core: merged dictionary misses value")
		}
		return uint64(c)
	}
	par.Do(len(bounds)-1, func(k int) {
		lo, hi := bounds[k], bounds[k+1]
		p := out.PackerAt(lo)
		var buf [step2Block]uint64
		for i := lo; i < hi; {
			var blk []uint64
			if i < nm {
				blk = m.Codes().DecodeRange(i, min(i+step2Block, hi, nm), buf[:])
				for j, c := range blk {
					blk[j] = lookup(oldDict.At(int(c)))
				}
			} else {
				blk = buf[:min(step2Block, hi-i)]
				for j, v := range deltaVals[i-nm : i-nm+len(blk)] {
					blk[j] = lookup(v)
				}
			}
			p.Put(blk)
			i += len(blk)
		}
		p.Flush()
	})
	st.Step2 = time.Since(t0)
	return colstore.New(merged, out)
}

const (
	// parallelDictThreshold is the combined dictionary size below which the
	// dictionary merge's count pass and pieces are not worth their
	// coordination overhead.
	parallelDictThreshold = 1 << 13
	// parallelStep2Threshold is the tuple count below which Step 2 runs
	// serially.
	parallelStep2Threshold = 1 << 14
)

// alignedChunks partitions [0, total) into at most nt ranges whose
// boundaries land on 64-bit word boundaries of the packed output, so
// concurrent Packers never touch the same word.
func alignedChunks(bits uint, total, nt int) []int {
	group := 1
	if bits != 0 {
		group = bitpack.WordBits / gcd(int(bits), bitpack.WordBits)
	}
	bounds := []int{0}
	for i := 1; i < nt; i++ {
		b := total * i / nt
		b -= b % group
		if b <= bounds[len(bounds)-1] {
			continue
		}
		bounds = append(bounds, b)
	}
	bounds = append(bounds, total)
	return bounds
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
