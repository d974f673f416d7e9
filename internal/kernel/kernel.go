// Package kernel implements the batch scan, filter and aggregate kernels
// behind every read path (paper §5, §6: the scan side of the
// multi-core story).  The scalar loops they replace called
// bitpack.Vector.Get one row at a time; the kernels instead evaluate
// predicates directly on the bit-packed words of a dictionary-code vector
// and communicate through selection vectors.
//
// # Selection-vector contract
//
// A selection vector is an ascending []int32 of element positions
// (positions are relative to the code vector, bitmap or epoch columns the
// kernel ran over, NOT row ids — the table layer maps positions to stable
// ids).
// Kernels that produce selections append to a caller-owned dst and return
// the extended slice, so a steady-state serial scan allocates no selection
// storage (a split scan, see below, gives each part after the first a
// vector of its own); kernels that consume selections (FilterVisible,
// FilterMain, CountSelMain, Gather) never reorder them.
//
// # Execution strategy
//
// The match kernels (MatchEqual, MatchRange, CountEqual) run word-at-a-time
// at every code width b from 1 to 64: a 64-bit window holds the k = 64/b
// whole codes that start at its bit offset — a word read as is when b
// divides 64, otherwise joined from the two words it spans — and all k
// codes are compared per iteration with branch-free SWAR arithmetic;
// windows with no matching lane are skipped with a single test.  Equality
// uses an exact lane-wise zero-detect after XOR with the broadcast code;
// range matching uses guard-bit compares over even/odd lane passes, both
// exact for fully packed lanes (no headroom bit is stored).  Width 0 (a
// single-value dictionary) matches every position, and 64-bit ranges,
// which leave no room for a guard bit, compare whole words.
//
// The aggregates (SumVisible, MinMaxVisible) and Gather read codes
// block-at-a-time instead: BlockSize codes are decoded into a pooled
// scratch buffer with bitpack.Vector.DecodeRange and consumed in a tight
// loop — never per-row Get.  The aggregates test visibility in that same
// loop, so a full-column aggregate builds no selection vector.
//
// Visibility comes in two forms.  A main partition's visibility at a read
// epoch is (k, hide): positions [0, k) began at or before the epoch, and a
// set bit i of the bitmap hide marks position i invisible (internal/epoch's
// Rows.MainAt).  The main-partition kernels (CountMain, SelectMain,
// CountEqual, SumVisible, MinMaxVisible) read nothing past k and one bit
// per position below it; a zero word of hide passes its 64 positions with
// one test, and a nil hide every position below k, so a main with no dead
// row costs no test at all.  The selection kernels (FilterMain,
// CountSelMain), which test only the positions they are given, take the
// dead bitmap as hide plus the list seen of the dead positions the read
// still sees (Rows.MainSeen), so an old read needs no copy of the bitmap.  A
// delta keeps flat begin/end epochs (FilterVisible, SelectVisible,
// CountVisible): a position is visible at epoch e iff begin <= e and
// end-1 >= e in unsigned arithmetic (end == 0 wraps to MaxUint64), which
// makes the check branch-free.
//
// # Parallel split
//
// The five full-vector kernels (MatchEqual, MatchRange, CountEqual,
// SumVisible, MinMaxVisible) cut their input — n codes, or the k a main's
// visibility admits — into min(GOMAXPROCS, n/minPart) contiguous parts of
// about equal size, minPart = 1<<17 codes,
// and run them through par.Do: part 0 on the calling goroutine, every
// other part on a worker of the store's one pool when one is free and on
// the caller otherwise.  Every kernel call, read fan-out and merge in the
// process shares that pool, so several large scans at once share its
// workers.  A vector of fewer than 2*minPart codes, or GOMAXPROCS(1),
// leaves one part: the kernel then runs its loop once on the caller.  The
// match and count kernels cut on window boundaries, so no window is shared
// by two parts and only the vector's last window is masked to its tail;
// the aggregates cut on BlockSize boundaries.  Selection vectors are concatenated in part
// order and so stay ascending; counts and sums are added and min/max folded
// across parts.  A kernel returns only after every part has finished.
//
// Kernels are pure functions over immutable inputs: the caller holds
// whatever lock protects the code vector, bitmap and epoch slices (the
// table's read lock), and that lock covers every part because each kernel waits
// for its parts before it returns.  The parts share only the inputs they
// read; each writes its own selection vector or partial result, and the
// kernels keep no state between calls.
package kernel

import (
	"cmp"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"hyrise/internal/bitpack"
	"hyrise/internal/par"
)

// BlockSize is the number of codes the aggregate kernels and Gather decode
// per block.  4KiB of decoded codes per block: small enough to stay
// cache-resident, large enough to amortize the per-block bookkeeping.
const BlockSize = 512

var blockPool = sync.Pool{New: func() any {
	b := make([]uint64, BlockSize)
	return &b
}}

// minPart is the fewest codes a kernel hands to one part: at 0.3 to 2 ns
// per code, 128Ki codes take 40 to 250 µs to scan, far above the few
// microseconds a hand-off to a worker and the join cost.
const minPart = 1 << 17

// parts returns the number of parts a full-vector kernel splits n codes
// into: min(GOMAXPROCS, n/minPart), and at least one.
func parts(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minPart))
}

// split cuts [0, n) into np contiguous parts whose bounds are multiples of
// unit (except n itself), runs part on each through par.Do and folds the
// results in part order.  Part 0 runs on the calling goroutine; split
// returns once all have finished.  With one part it calls part(0, 0, n)
// directly.  Parts may be empty when n/unit < np.
func split[R any](n, unit, np int, part func(p, from, to int) R, fold func(acc, r R) R) R {
	if np == 1 {
		return part(0, 0, n)
	}
	units := (n + unit - 1) / unit
	rs := make([]R, np)
	par.Do(np, func(p int) {
		rs[p] = part(p, min(n, units*p/np*unit), min(n, units*(p+1)/np*unit))
	})
	acc := rs[0]
	for _, r := range rs[1:] {
		acc = fold(acc, r)
	}
	return acc
}

// splitSel is split for the match kernels over count windows: each part
// scans its windows [from, to), part 0 appending to dst and every other
// part to a vector of its own, and the vectors are concatenated in part
// order onto dst.
func splitSel(count, np int, dst []int32, scan func(from, to int, dst []int32) []int32) []int32 {
	return split(count, 1, np, func(p, from, to int) []int32 {
		if p == 0 {
			return scan(from, to, dst)
		}
		return scan(from, to, nil)
	}, func(acc, sel []int32) []int32 { return append(acc, sel...) })
}

// add is the fold of the counting and summing kernels.
func add[N int | uint64](a, b N) N { return a + b }

// visible reports position i's visibility at epoch e over flat begin/end
// columns.  end == 0 (current version) wraps to MaxUint64, so the check is
// two unsigned compares with no branch on end.
func visible(begin, end []uint64, i int, e uint64) bool {
	return begin[i] <= e && end[i]-1 >= e
}

// hidden returns 1 when bit p of hide is set, 0 otherwise.
func hidden(hide []uint64, p int) uint64 { return hide[p>>6] >> (p & 63) & 1 }

// MatchEqual appends to dst the positions of v whose code equals code and
// returns the extended selection vector.
func MatchEqual(v *bitpack.Vector, code uint64, dst []int32) []int32 {
	return matchEqual(v, code, dst, parts(v.Len()))
}

// matchEqual is MatchEqual split into np parts.
func matchEqual(v *bitpack.Vector, code uint64, dst []int32, np int) []int32 {
	n := v.Len()
	if n == 0 || code > v.MaxCode() {
		return dst
	}
	b := v.Bits()
	if b == 0 {
		// Degenerate single-value dictionary: every position matches.
		return matchAll(n, dst)
	}
	w, count, tail := windowsOf(v, n)
	words := v.Words()
	return splitSel(count, np, dst, func(from, to int, dst []int32) []int32 {
		for i := from; i < to; i++ {
			var m uint64
			if i, m = w.nextEqual(words, i, to, code, b); m == 0 {
				break
			}
			if i == count-1 {
				m &= tail
			}
			dst = w.emit(dst, i, m)
		}
		return dst
	})
}

// MatchRange appends to dst the positions of v whose code lies in the
// half-open interval [lo, hi) and returns the extended selection vector.
func MatchRange(v *bitpack.Vector, lo, hi uint64, dst []int32) []int32 {
	return matchRange(v, lo, hi, dst, parts(v.Len()))
}

// matchRange is MatchRange split into np parts.
func matchRange(v *bitpack.Vector, lo, hi uint64, dst []int32, np int) []int32 {
	n := v.Len()
	if n == 0 || lo >= hi || lo > v.MaxCode() {
		return dst
	}
	b := v.Bits()
	if b == 0 {
		// All codes are zero; lo == 0 here since lo <= MaxCode() == 0.
		return matchAll(n, dst)
	}
	if lo+1 == hi {
		return matchEqual(v, lo, dst, np)
	}
	words := v.Words()
	if b == bitpack.WordBits {
		// A 64-bit lane leaves no room for a guard bit: compare words.
		return splitSel(n, np, dst, func(from, to int, dst []int32) []int32 {
			for i, c := range words[from:to] {
				if c >= lo && c < hi {
					dst = append(dst, int32(from+i))
				}
			}
			return dst
		})
	}
	w, count, tail := windowsOf(v, n)
	var even uint64 // lsb of lanes 0, 2, 4, ... of the window
	for j := 0; j < w.k; j += 2 {
		even |= 1 << (uint(j) * b)
	}
	top := min(hi, v.MaxCode()+1) // nextRange needs hi <= 2^b
	return splitSel(count, np, dst, func(from, to int, dst []int32) []int32 {
		for i := from; i < to; i++ {
			var m uint64
			if i, m = w.nextRange(words, i, to, lo, top, even, b); m == 0 {
				break
			}
			if i == count-1 {
				m &= tail
			}
			dst = w.emit(dst, i, m)
		}
		return dst
	})
}

func matchAll(n int, dst []int32) []int32 {
	for i := 0; i < n; i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

// windows is the word-at-a-time layout of a packed vector of width b,
// 1 <= b <= 64.  Window i is a 64-bit word holding the k = 64/b whole codes
// i*k .. i*k+k-1, code i*k+j in lane j (bits j*b .. j*b+b-1); the bits
// above k*b hold parts of the following codes.  A match mask has bit j*b
// set for each matching lane j and no bit outside the k lanes.
//
// The kernels find the next window with a match in a separate function
// (nextEqual, nextRange) and emit its lanes in the caller: a skipped
// window then costs a load and a few ALU operations with every constant in
// a register.
type windows struct {
	k     int
	step  uint   // k*b: the bit distance between consecutive windows
	lsb   uint64 // bit 0 of each of the k lanes
	recip uint64 // floor(65536/b) + 1, see lane
}

// windowsOf returns v's layout, the number of windows covering its first n
// codes, and the match mask of the last window's lanes that hold one of
// them.
func windowsOf(v *bitpack.Vector, n int) (w windows, count int, tail uint64) {
	b := v.Bits()
	w.k = int(bitpack.WordBits / b)
	w.step, w.recip = uint(w.k)*b, 65536/uint64(b)+1
	for j := 0; j < w.k; j++ {
		w.lsb |= 1 << (uint(j) * b)
	}
	count, tail = (n+w.k-1)/w.k, w.lsb
	if r := n % w.k; r != 0 {
		tail &= 1<<(uint(r)*b) - 1
	}
	return w, count, tail
}

// at loads window i of words.  When b divides 64 a window is a word and is
// read as is (the branch is loop-invariant); otherwise the window starts at
// bit i*k*b and is joined from that word and its successor.  The successor
// is read only where it exists: the bits it would supply past the last
// word lie beyond the last code.  A shift by 64 yields 0, so a window
// starting on a word boundary takes nothing from its successor.
func (w windows) at(words []uint64, i int) uint64 {
	if w.step == bitpack.WordBits {
		return words[i]
	}
	bit := uint(i) * w.step
	wi, off := bit/bitpack.WordBits, bit%bitpack.WordBits
	x := words[wi] >> off
	if wi+1 < uint(len(words)) {
		x |= words[wi+1] << (bitpack.WordBits - off)
	}
	return x
}

// nextEqual returns the first window in [i, to) that has a lane equal to
// code, with its match mask; the mask is 0 when no window in that range
// has one.  XOR with the code broadcast into every lane leaves the equal
// lanes zero, and ~(((x &^ H) + ^H) | x) & H, with H the msb of every
// lane, is an exact, lane-independent zero test: the inner sum carries
// into a lane's msb iff its low bits are non-zero, and per-lane sums never
// cross lane boundaries (the bits above the k lanes only carry out of the
// word).
func (w windows) nextEqual(words []uint64, i, to int, code uint64, b uint) (int, uint64) {
	bcast, H := code*w.lsb, w.lsb<<(b-1)
	notH := ^H
	for ; i < to; i++ {
		x := w.at(words, i) ^ bcast
		if m := ^(((x & notH) + notH) | x) & H; m != 0 {
			return i, m >> (b - 1)
		}
	}
	return i, 0
}

// nextRange is nextEqual for the lanes in [lo, hi), where b < 64,
// hi <= 2^b and even holds the lsb of lanes 0, 2, 4, ...  It uses
// guard-bit compares: with odd lanes masked out, each even lane has a guard
// bit directly above it, and (x | G) - bound leaves the guard set iff
// x >= bound (bound <= 2^b, so no borrow leaves the lane and its guard).
// Odd lanes run through the same constants on the window shifted right by
// one lane.  The guard of even lane j is the lsb of lane j+1, so the even
// pass's result shifted down one lane and the odd pass's result as is are
// both match masks.  When k is odd the odd pass also compares the partial
// lane above the k codes; w.lsb drops it.
func (w windows) nextRange(words []uint64, i, to int, lo, hi, even uint64, b uint) (int, uint64) {
	evenMask, G := even*(uint64(1)<<b-1), even<<b
	loBC, hiBC := lo*even, hi*even
	for ; i < to; i++ {
		x := w.at(words, i)
		xe, xo := x&evenMask|G, x>>b&evenMask|G
		m := ((xe-loBC)&^(xe-hiBC)&G)>>b | (xo-loBC)&^(xo-hiBC)&G
		if m &= w.lsb; m != 0 {
			return i, m
		}
	}
	return i, 0
}

// lane returns the lane of the lowest bit of match mask m.  The bit sits at
// tz = lane*b, and tz*(floor(65536/b)+1) >> 16 is exactly tz/b for every
// tz < 64: the multiply overshoots tz/b by less than 64/65536, short of the
// 1/b it would take to reach the next integer.
func (w windows) lane(m uint64) int {
	return int(uint64(bits.TrailingZeros64(m)) * w.recip >> 16)
}

// emit appends the positions of window i's matching lanes to dst.
func (w windows) emit(dst []int32, i int, m uint64) []int32 {
	base := int32(i * w.k)
	for ; m != 0; m &= m - 1 {
		dst = append(dst, base+int32(w.lane(m)))
	}
	return dst
}

// FilterVisible compacts sel in place to the positions visible at epoch e,
// reading flat begin/end epoch columns, and returns the shortened
// selection vector.  Positions index begin/end directly.
func FilterVisible(sel []int32, begin, end []uint64, e uint64) []int32 {
	w := 0
	for _, p := range sel {
		if visible(begin, end, int(p), e) {
			sel[w] = p
			w++
		}
	}
	return sel[:w]
}

// SelectVisible appends to dst the positions in [from, to) visible at
// epoch e over flat begin/end columns and returns the extended selection
// vector.
func SelectVisible(begin, end []uint64, e uint64, from, to int, dst []int32) []int32 {
	for i := from; i < to; i++ {
		if visible(begin, end, i, e) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// CountVisible returns the number of positions in [from, to) visible at
// epoch e over flat begin/end columns.
func CountVisible(begin, end []uint64, e uint64, from, to int) int {
	n := 0
	for i := from; i < to; i++ {
		n += b2i(visible(begin, end, i, e))
	}
	return n
}

// CountMain returns the number of visible main positions: those below k
// whose hide bit is clear.
func CountMain(k int, hide []uint64) int {
	if hide == nil {
		return k
	}
	n := k
	for _, w := range hide[:k>>6] {
		n -= bits.OnesCount64(w)
	}
	if r := k & 63; r != 0 {
		n -= bits.OnesCount64(hide[k>>6] & (1<<r - 1))
	}
	return n
}

// SelectMain appends to dst the visible main positions, ascending, and
// returns the extended selection vector — the seed kernel for full scans.
// A zero hide word appends its 64 positions without a test.
func SelectMain(k int, hide []uint64, dst []int32) []int32 {
	for base := 0; base < k; base += 64 {
		r := min(64, k-base)
		if hide == nil || hide[base>>6] == 0 {
			for i := base; i < base+r; i++ {
				dst = append(dst, int32(i))
			}
			continue
		}
		m := ^hide[base>>6]
		if r < 64 {
			m &= 1<<r - 1
		}
		for ; m != 0; m &= m - 1 {
			dst = append(dst, int32(base+bits.TrailingZeros64(m)))
		}
	}
	return dst
}

// FilterMain compacts sel in place to its visible main positions and
// returns the shortened selection vector: those below k whose hide bit is
// clear or that seen lists.  seen holds positions whose hide bit is set
// that the read still sees, in any order, and may hold some at or past k,
// which are ignored (epoch.Rows.MainSeen).  With a nil hide it only cuts
// the ascending sel at k.  It costs O(len(sel) + len(seen)·log len(sel))
// and allocates nothing.
func FilterMain(sel []int32, k int, hide []uint64, seen []int32) []int32 {
	sel = sel[:below(sel, k)]
	if hide == nil {
		return sel
	}
	// Mark each selected position seen lists by complementing it (a
	// negative value), which the search reads back as the position, so the
	// compaction below keeps it whatever its bit says.
	for _, s := range seen {
		j, ok := slices.BinarySearchFunc(sel, s, func(p, s int32) int { return cmp.Compare(p^p>>31, s) })
		if ok {
			sel[j] = ^s
		}
	}
	w := 0
	for _, p := range sel {
		if p < 0 || hidden(hide, int(p)) == 0 {
			sel[w] = p ^ p>>31
			w++
		}
	}
	return sel[:w]
}

// below returns the number of positions of the ascending sel below k.
func below(sel []int32, k int) int {
	if len(sel) == 0 || int(sel[len(sel)-1]) < k {
		return len(sel)
	}
	return sort.Search(len(sel), func(i int) bool { return int(sel[i]) >= k })
}

// CountSelMain returns the number of visible main positions in sel without
// modifying it — the counting companion of FilterMain, with the same
// (k, hide, seen) and cost, for read-only selections such as index posting
// lists (Bucket slices must not be compacted in place).
func CountSelMain(sel []int32, k int, hide []uint64, seen []int32) int {
	sel = sel[:below(sel, k)]
	if hide == nil {
		return len(sel)
	}
	n := 0
	for _, p := range sel {
		n += int(1 - hidden(hide, int(p)))
	}
	for _, s := range seen {
		if _, ok := slices.BinarySearch(sel, s); ok {
			n++
		}
	}
	return n
}

// CountEqual returns the number of visible main positions of v whose code
// equals code, fused with the (k, hide) visibility test.  With a nil hide
// it counts matches with one population count per window.
func CountEqual(v *bitpack.Vector, code uint64, k int, hide []uint64) int {
	return countEqual(v, code, k, hide, parts(k))
}

// countEqual is CountEqual split into np parts.
func countEqual(v *bitpack.Vector, code uint64, k int, hide []uint64, np int) int {
	if k == 0 || code > v.MaxCode() {
		return 0
	}
	b := v.Bits()
	if b == 0 {
		return CountMain(k, hide)
	}
	w, count, tail := windowsOf(v, k)
	words := v.Words()
	return split(count, 1, np, func(_, from, to int) int {
		cnt := 0
		for i := from; i < to; i++ {
			var m uint64
			if i, m = w.nextEqual(words, i, to, code, b); m == 0 {
				break
			}
			if i == count-1 {
				m &= tail
			}
			cnt += bits.OnesCount64(m)
			if hide == nil {
				continue
			}
			// Branch-free: whether a matching position is hidden is data.
			base := i * w.k
			for ; m != 0; m &= m - 1 {
				cnt -= int(hidden(hide, base+w.lane(m)))
			}
		}
		return cnt
	}, add[int])
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SumVisible returns the sum of dict[code] over the visible main positions
// of codes — a main partition's column sum, codes indexing its sorted
// dictionary.  Each block of codes below k is decoded and looked up in the
// same loop that masks out its hidden positions, so no selection vector is
// built.  The sum wraps modulo 2^64.
func SumVisible[V ~uint32 | ~uint64](codes *bitpack.Vector, dict []V, k int, hide []uint64) uint64 {
	return sumVisible(codes, dict, k, hide, parts(k))
}

// sumVisible is SumVisible split into np parts.
func sumVisible[V ~uint32 | ~uint64](codes *bitpack.Vector, dict []V, k int, hide []uint64, np int) uint64 {
	return split(k, BlockSize, np, func(_, from, to int) uint64 {
		var sum uint64
		decodeBlocks(codes, from, to, hide, func(cs []uint64, w uint64) {
			var s uint64
			if w == 0 {
				for _, c := range cs {
					s += uint64(dict[c])
				}
			} else {
				for i, c := range cs {
					if w>>(i&63)&1 == 0 {
						s += uint64(dict[c])
					}
				}
			}
			sum += s
		})
		return sum
	}, add[uint64])
}

// extremes is one part's MinMaxVisible result: MaxUint64 and 0 when no
// position was visible, so folding takes min and max as is, and a part saw
// a visible position iff mn <= mx.
type extremes struct{ mn, mx uint64 }

// MinMaxVisible returns the smallest and largest code among the visible
// main positions of codes; ok is false when none is.  Because
// dictionaries are order-preserving, the min/max code IS the min/max value
// after one dictionary access.
func MinMaxVisible(codes *bitpack.Vector, k int, hide []uint64) (minC, maxC uint64, ok bool) {
	return minMaxVisible(codes, k, hide, parts(k))
}

// minMaxVisible is MinMaxVisible split into np parts.
func minMaxVisible(codes *bitpack.Vector, k int, hide []uint64, np int) (minC, maxC uint64, ok bool) {
	x := split(k, BlockSize, np, func(_, from, to int) extremes {
		mn, mx := ^uint64(0), uint64(0)
		decodeBlocks(codes, from, to, hide, func(cs []uint64, w uint64) {
			if w == 0 {
				for _, c := range cs {
					mn, mx = min(mn, c), max(mx, c)
				}
				return
			}
			for i, c := range cs {
				if w>>(i&63)&1 == 0 {
					mn, mx = min(mn, c), max(mx, c)
				}
			}
		})
		return extremes{mn, mx}
	}, func(a, b extremes) extremes {
		return extremes{min(a.mn, b.mn), max(a.mx, b.mx)}
	})
	if x.mn > x.mx {
		return 0, 0, false
	}
	return x.mn, x.mx, true
}

// decodeBlocks decodes the codes [from, to) of v, from a multiple of
// BlockSize, BlockSize codes at a time into a pooled scratch buffer and
// hands fn the decoded codes with their hide word: each run of 64 codes
// with its word of hide (bit i for the run's code i), or the whole block
// with 0 when hide is nil, so a run with no hidden code takes an untested
// loop.
func decodeBlocks(v *bitpack.Vector, from, to int, hide []uint64, fn func(codes []uint64, w uint64)) {
	bufp := blockPool.Get().(*[]uint64)
	buf := *bufp
	for base := from; base < to; base += BlockSize {
		buf = v.DecodeRange(base, min(base+BlockSize, to), buf)
		if hide == nil {
			fn(buf, 0)
			continue
		}
		for j := 0; j < len(buf); j += 64 {
			fn(buf[j:min(len(buf), j+64)], hide[(base+j)>>6])
		}
	}
	*bufp = buf[:cap(buf)]
	blockPool.Put(bufp)
}

// Gather streams (position, code) pairs for the selected positions
// through fn in selection order, stopping early if fn returns false.  It
// is the scan driver: produce a selection with SelectVisible or the match
// kernels, then gather codes block-at-a-time for materialization.
func Gather(v *bitpack.Vector, sel []int32, fn func(pos int32, code uint64) bool) {
	if len(sel) == 0 {
		return
	}
	span := int(sel[len(sel)-1]) - int(sel[0]) + 1
	if len(sel)*4 < span {
		for _, p := range sel {
			if !fn(p, v.Get(int(p))) {
				return
			}
		}
		return
	}
	bufp := blockPool.Get().(*[]uint64)
	buf := *bufp
	defer func() {
		*bufp = buf[:cap(buf)]
		blockPool.Put(bufp)
	}()
	i := 0
	for i < len(sel) {
		base := int(sel[i])
		to := base + BlockSize
		if n := v.Len(); to > n {
			to = n
		}
		buf = v.DecodeRange(base, to, buf)
		for i < len(sel) && int(sel[i]) < to {
			if !fn(sel[i], buf[int(sel[i])-base]) {
				return
			}
			i++
		}
	}
}
