package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"hyrise/internal/bitpack"
)

// The differential suite pins every kernel entry point to a scalar
// reference implementation across a sweep of code widths (1–64 bits),
// lengths crossing word and block boundaries, and match selectivities.
// Selection vectors must be byte-identical, aggregates exactly equal.
// The main-partition kernels take (k, hide): the suite derives it from
// flat begin/end epochs, begin ascending as in a main, the way
// epoch.Rows.MainAt does — k counts the positions that began by the read
// epoch, a hide bit marks one below k that died by it, and the bits at and
// past k are junk the kernels must not read; the selection kernels get the
// dead bitmap plus the dead positions the epoch still sees, as
// epoch.Rows.MainSeen gives them — and checks every kernel
// against the per-row reference over the flat epochs, at a random epoch,
// at the Latest sentinel and with a nil hide, at k below and equal to the
// length.  The split kernels run through their unexported entry points at
// every part count 1..maxParts, so part edges fall inside and at the end
// of the vector and parts come out empty; TestDifferentialPartCount pins
// the exported kernels, which pick the part count themselves.

// maxParts is the largest part count the differential suite forces.
const maxParts = 5

// ---- scalar references -------------------------------------------------

func refMatchEqual(v *bitpack.Vector, code uint64) []int32 {
	var out []int32
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) == code {
			out = append(out, int32(i))
		}
	}
	return out
}

func refMatchRange(v *bitpack.Vector, lo, hi uint64) []int32 {
	var out []int32
	for i := 0; i < v.Len(); i++ {
		if c := v.Get(i); c >= lo && c < hi {
			out = append(out, int32(i))
		}
	}
	return out
}

func refVisible(begin, end []uint64, i int, e uint64) bool {
	return begin[i] <= e && (end[i] == 0 || end[i] > e)
}

func refFilterVisible(sel []int32, begin, end []uint64, e uint64) []int32 {
	var out []int32
	for _, p := range sel {
		if refVisible(begin, end, int(p), e) {
			out = append(out, p)
		}
	}
	return out
}

func refSelectVisible(begin, end []uint64, e uint64, from, to int) []int32 {
	var out []int32
	for i := from; i < to; i++ {
		if refVisible(begin, end, i, e) {
			out = append(out, int32(i))
		}
	}
	return out
}

func refCountEqual(v *bitpack.Vector, code uint64, vis []bool) int {
	n := 0
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) == code && vis[i] {
			n++
		}
	}
	return n
}

func refSumVisible[V uint32 | uint64](v *bitpack.Vector, dict []V, vis []bool) uint64 {
	var sum uint64
	for _, p := range refSel(vis) {
		sum += uint64(dict[v.Get(int(p))])
	}
	return sum
}

func refMinMaxVisible(v *bitpack.Vector, vis []bool) (uint64, uint64, bool) {
	sel := refSel(vis)
	if len(sel) == 0 {
		return 0, 0, false
	}
	mn, mx := v.Get(int(sel[0])), v.Get(int(sel[0]))
	for _, p := range sel[1:] {
		c := v.Get(int(p))
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	return mn, mx, true
}

// refSel returns the positions vis marks visible, ascending.
func refSel(vis []bool) []int32 {
	var out []int32
	for i, ok := range vis {
		if ok {
			out = append(out, int32(i))
		}
	}
	return out
}

// refFilter keeps the positions of sel that vis marks visible.
func refFilter(sel []int32, vis []bool) []int32 {
	var out []int32
	for _, p := range sel {
		if vis[p] {
			out = append(out, p)
		}
	}
	return out
}

// mainVis is a main's visibility at one epoch: the (k, hide) the full
// kernels take, the (k, dead, seen) the selection kernels take, and the
// per-row reference vis over the flat epochs they came from.
type mainVis struct {
	k    int
	hide []uint64
	dead []uint64
	seen []int32
	vis  []bool
}

// mainAt derives a main's visibility at epoch e from flat epochs whose
// begin ascends, as epoch.Rows.MainAt and MainSeen do: k counts the
// positions that began by e; hide marks those below k invisible at e; dead
// marks those below k with an end, and seen lists, shuffled, those of them
// with end > e.  Every bit of hide and dead at and past k is rng's junk,
// and seen also lists junk positions at and past k.
func mainAt(rng *rand.Rand, begin, end []uint64, e uint64) mainVis {
	n := len(begin)
	words := (n + 63) / 64
	m := mainVis{k: n, hide: make([]uint64, words), dead: make([]uint64, words), vis: make([]bool, n)}
	for i := range n {
		m.vis[i] = refVisible(begin, end, i, e)
		if begin[i] > e && m.k == n {
			m.k = i
		}
	}
	for i := range n {
		junk := i >= m.k && rng.Intn(2) == 0
		if i < m.k && !m.vis[i] || junk {
			m.hide[i>>6] |= 1 << (i & 63)
		}
		if i < m.k && end[i] != 0 || junk {
			m.dead[i>>6] |= 1 << (i & 63)
		}
		if i < m.k && end[i] != 0 && end[i] > e || junk && rng.Intn(2) == 0 {
			m.seen = append(m.seen, int32(i))
		}
	}
	rng.Shuffle(len(m.seen), func(i, j int) { m.seen[i], m.seen[j] = m.seen[j], m.seen[i] })
	return m
}

// wholeMain is the visibility of a main with no dead row whose first k of n
// positions began by the read epoch: nil hide.
func wholeMain(n, k int) mainVis {
	m := mainVis{k: k, vis: make([]bool, n)}
	for i := range k {
		m.vis[i] = true
	}
	return m
}

func refDecodeRange(v *bitpack.Vector, from, to int) []uint64 {
	out := make([]uint64, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, v.Get(i))
	}
	return out
}

// ---- generators --------------------------------------------------------

// Lengths crossing word boundaries (63/64/65), block boundaries
// (BlockSize±1) and the 4096±1 chunk sizes named in the spec.
var diffLengths = []int{0, 1, 63, 64, 65, BlockSize - 1, BlockSize, BlockSize + 1, 4095, 4096, 4097}

type selectivity struct {
	name string
	gen  func(rng *rand.Rand, width uint, n int) (codes []uint64, needle uint64)
}

var selectivities = []selectivity{
	{"all-match", func(rng *rand.Rand, width uint, n int) ([]uint64, uint64) {
		needle := boundedCode(rng, width)
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = needle
		}
		return codes, needle
	}},
	{"none-match", func(rng *rand.Rand, width uint, n int) ([]uint64, uint64) {
		needle := boundedCode(rng, width)
		codes := make([]uint64, n)
		for i := range codes {
			c := boundedCode(rng, width)
			if c == needle { // keep the needle absent when the width allows
				c = needle ^ (1&^(c>>63))&maxFor(width)
				if c == needle && width > 0 {
					c = (needle + 1) & maxFor(width)
				}
			}
			codes[i] = c
		}
		if width == 0 {
			return codes, 1 // needle 1 can never match width-0 codes
		}
		return codes, needle
	}},
	{"dense", func(rng *rand.Rand, width uint, n int) ([]uint64, uint64) {
		needle := boundedCode(rng, width)
		codes := make([]uint64, n)
		for i := range codes {
			if rng.Intn(2) == 0 {
				codes[i] = needle
			} else {
				codes[i] = boundedCode(rng, width)
			}
		}
		return codes, needle
	}},
	{"sparse", func(rng *rand.Rand, width uint, n int) ([]uint64, uint64) {
		needle := boundedCode(rng, width)
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = boundedCode(rng, width)
		}
		if n > 0 {
			codes[rng.Intn(n)] = needle
		}
		return codes, needle
	}},
}

func maxFor(width uint) uint64 {
	if width == 0 {
		return 0
	}
	if width == 64 {
		return ^uint64(0)
	}
	return (1 << width) - 1
}

func boundedCode(rng *rand.Rand, width uint) uint64 {
	return rng.Uint64() & maxFor(width)
}

func eqSel(a, b []int32) bool { return slices.Equal(a, b) }

// sweep runs fn for every width x length x selectivity combination.
func sweep(t *testing.T, fn func(t *testing.T, rng *rand.Rand, v *bitpack.Vector, needle uint64)) {
	t.Helper()
	for width := uint(0); width <= 64; width++ {
		for _, n := range diffLengths {
			for _, sel := range selectivities {
				rng := rand.New(rand.NewSource(int64(width)*1_000_003 + int64(n)*97 + int64(len(sel.name))))
				codes, needle := sel.gen(rng, width, n)
				v := bitpack.FromSlice(width, codes)
				name := fmt.Sprintf("w%d/n%d/%s", width, n, sel.name)
				ok := t.Run(name, func(t *testing.T) {
					fn(t, rng, v, needle)
				})
				if !ok {
					return // first failing case is enough to debug
				}
			}
		}
	}
}

// ---- differential tests ------------------------------------------------

func TestDifferentialMatchEqual(t *testing.T) {
	sweep(t, func(t *testing.T, rng *rand.Rand, v *bitpack.Vector, needle uint64) {
		want := refMatchEqual(v, needle)
		for np := 1; np <= maxParts; np++ {
			if got := matchEqual(v, needle, nil, np); !eqSel(got, want) {
				t.Fatalf("matchEqual(code=%d, parts=%d): got %d sel %v want %d sel %v",
					needle, np, len(got), head(got), len(want), head(want))
			}
			// Appending to a non-empty dst must preserve the prefix.
			pre := []int32{-7}
			got2 := matchEqual(v, needle, pre, np)
			if len(got2) != len(want)+1 || got2[0] != -7 || !eqSel(got2[1:], want) {
				t.Fatalf("matchEqual(parts=%d) dst prefix violated", np)
			}
		}
	})
}

func TestDifferentialMatchRange(t *testing.T) {
	sweep(t, func(t *testing.T, rng *rand.Rand, v *bitpack.Vector, needle uint64) {
		max := maxFor(v.Bits())
		ranges := [][2]uint64{
			{0, max/2 + 1},               // lower half
			{needle, needle + 1},         // point range
			{needle / 2, needle + 2},     // straddling the needle
			{max, max},                   // empty (lo >= hi)
			{0, ^uint64(0)},              // everything
			{max / 3, 2*(max/3) + 1},     // middle band
			{needle, needle + max/4 + 1}, // needle-anchored band
		}
		for _, r := range ranges {
			want := refMatchRange(v, r[0], r[1])
			for np := 1; np <= maxParts; np++ {
				if got := matchRange(v, r[0], r[1], []int32{-7}, np); len(got) == 0 || got[0] != -7 || !eqSel(got[1:], want) {
					t.Fatalf("matchRange[%d,%d) parts=%d: got %d sel %v want %d sel %v",
						r[0], r[1], np, len(got), head(got), len(want)+1, head(want))
				}
			}
		}
	})
}

// randomEpochs builds begin/end columns with a mix of current (end=0),
// invalidated-early and invalidated-late versions, plus an epoch that
// splits them.  begin ascends, as in a main.
func randomEpochs(rng *rand.Rand, n int) (begin, end []uint64, e uint64) {
	begin = make([]uint64, n)
	end = make([]uint64, n)
	for i := 0; i < n; i++ {
		begin[i] = uint64(rng.Intn(10) + 1)
	}
	slices.Sort(begin)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			end[i] = 0 // current
		default:
			end[i] = begin[i] + uint64(rng.Intn(10))
		}
	}
	return begin, end, uint64(rng.Intn(14) + 1)
}

// mains returns the main visibilities every main-partition kernel is
// checked at: flat epochs at a random epoch and at the Latest sentinel,
// and nil hides at k = n and at a k inside the vector.
func mains(rng *rand.Rand, n int) []mainVis {
	begin, end, e := randomEpochs(rng, n)
	return []mainVis{
		mainAt(rng, begin, end, e),
		mainAt(rng, begin, end, ^uint64(0)),
		wholeMain(n, n),
		wholeMain(n, n*2/3+n%2),
	}
}

func TestDifferentialVisibilityKernels(t *testing.T) {
	sweep(t, func(t *testing.T, rng *rand.Rand, v *bitpack.Vector, needle uint64) {
		n := v.Len()
		// The delta's flat forms.
		begin, end, e := randomEpochs(rng, n)
		rng.Shuffle(n, func(i, j int) { begin[i], begin[j] = begin[j], begin[i] })
		wantSel := refSelectVisible(begin, end, e, 0, n)
		gotSel := SelectVisible(begin, end, e, 0, n, []int32{-7})
		if len(gotSel) == 0 || gotSel[0] != -7 || !eqSel(gotSel[1:], wantSel) {
			t.Fatalf("SelectVisible: got %v want %v", head(gotSel), head(wantSel))
		}
		if got, want := CountVisible(begin, end, e, 0, n), len(wantSel); got != want {
			t.Fatalf("CountVisible: got %d want %d", got, want)
		}
		// Partial row ranges, including empty ones.
		if n > 2 {
			from, to := 1, n-1
			if !eqSel(SelectVisible(begin, end, e, from, to, nil), refSelectVisible(begin, end, e, from, to)) {
				t.Fatalf("SelectVisible partial range diverged")
			}
			if got, want := CountVisible(begin, end, e, from, to), len(refSelectVisible(begin, end, e, from, to)); got != want {
				t.Fatalf("CountVisible partial range: got %d want %d", got, want)
			}
		}
		matches := MatchEqual(v, needle, nil)
		wantF := refFilterVisible(matches, begin, end, e)
		gotF := FilterVisible(append([]int32(nil), matches...), begin, end, e)
		if !eqSel(gotF, wantF) {
			t.Fatalf("FilterVisible: got %v want %v", head(gotF), head(wantF))
		}

		for _, m := range mains(rng, n) {
			checkMainVisibility(t, v, needle, m)
			checkCountEqual(t, v, needle, m)
		}
	})
}

// checkMainVisibility pins the main's selection and counting kernels at
// one (k, hide) to the per-row reference.
func checkMainVisibility(t *testing.T, v *bitpack.Vector, needle uint64, m mainVis) {
	t.Helper()
	want := refSel(m.vis)
	if got := SelectMain(m.k, m.hide, []int32{-7}); len(got) == 0 || got[0] != -7 || !eqSel(got[1:], want) {
		t.Fatalf("SelectMain(n=%d, k=%d, nil hide %v): got %v want %v", v.Len(), m.k, m.hide == nil, head(got), head(want))
	}
	if got := CountMain(m.k, m.hide); got != len(want) {
		t.Fatalf("CountMain(n=%d, k=%d, nil hide %v) = %d want %d", v.Len(), m.k, m.hide == nil, got, len(want))
	}
	// FilterMain compacts in place; CountSelMain must agree with it and
	// leave the selection untouched (posting lists are read-only).  Both
	// run on the dead bitmap plus seen, over the matches of needle and over
	// every position.
	for _, matches := range [][]int32{refMatchEqual(v, needle), matchAll(v.Len(), nil)} {
		wantF := refFilter(matches, m.vis)
		if got := FilterMain(append([]int32(nil), matches...), m.k, m.dead, m.seen); !eqSel(got, wantF) {
			t.Fatalf("FilterMain(k=%d, nil hide %v, %d seen): got %v want %v", m.k, m.dead == nil, len(m.seen), head(got), head(wantF))
		}
		before := append([]int32(nil), matches...)
		if got := CountSelMain(matches, m.k, m.dead, m.seen); got != len(wantF) {
			t.Fatalf("CountSelMain(k=%d, nil hide %v, %d seen) = %d want %d", m.k, m.dead == nil, len(m.seen), got, len(wantF))
		}
		if !eqSel(matches, before) {
			t.Fatalf("CountSelMain mutated its selection")
		}
	}
}

// checkCountEqual pins countEqual at one (k, hide) and every part count to
// the reference.
func checkCountEqual(t *testing.T, v *bitpack.Vector, needle uint64, m mainVis) {
	t.Helper()
	want := refCountEqual(v, needle, m.vis)
	for np := 1; np <= maxParts; np++ {
		if got := countEqual(v, needle, m.k, m.hide, np); got != want {
			t.Fatalf("countEqual(w=%d, n=%d, k=%d, nil hide %v, parts=%d): got %d want %d",
				v.Bits(), v.Len(), m.k, m.hide == nil, np, got, want)
		}
	}
}

func TestDifferentialAggregateKernels(t *testing.T) {
	sweep(t, func(t *testing.T, rng *rand.Rand, v *bitpack.Vector, needle uint64) {
		checkAggregates(t, rng, v)
	})
}

// checkAggregates pins sumVisible (both value types) and minMaxVisible to
// the references at every main visibility of mains and every part count.
func checkAggregates(t *testing.T, rng *rand.Rand, v *bitpack.Vector) {
	t.Helper()
	n := v.Len()
	dv, dict := indexable(rng, v)
	dict32 := make([]uint32, len(dict))
	for i, x := range dict {
		dict32[i] = uint32(x)
	}
	for _, m := range mains(rng, n) {
		want := refSumVisible(dv, dict, m.vis)
		want32 := refSumVisible(dv, dict32, m.vis)
		wmn, wmx, wok := refMinMaxVisible(v, m.vis)
		for np := 1; np <= maxParts; np++ {
			if got := sumVisible(dv, dict, m.k, m.hide, np); got != want {
				t.Fatalf("sumVisible(w=%d, n=%d, k=%d, nil hide %v, parts=%d): got %d want %d", v.Bits(), n, m.k, m.hide == nil, np, got, want)
			}
			if got := sumVisible(dv, dict32, m.k, m.hide, np); got != want32 {
				t.Fatalf("sumVisible[uint32](w=%d, n=%d, k=%d, nil hide %v, parts=%d): got %d want %d", v.Bits(), n, m.k, m.hide == nil, np, got, want32)
			}
			if gmn, gmx, gok := minMaxVisible(v, m.k, m.hide, np); gmn != wmn || gmx != wmx || gok != wok {
				t.Fatalf("minMaxVisible(w=%d, n=%d, k=%d, nil hide %v, parts=%d): got (%d,%d,%v) want (%d,%d,%v)",
					v.Bits(), n, m.k, m.hide == nil, np, gmn, gmx, gok, wmn, wmx, wok)
			}
		}
	}
}

// indexable returns a vector at v's width whose codes index the returned
// random dictionary: v itself up to 12 bits, wider codes folded below 4096
// (a dictionary cannot span a 64-bit code space; DecodeRange's own sweep
// covers the high lanes).
func indexable(rng *rand.Rand, v *bitpack.Vector) (*bitpack.Vector, []uint64) {
	size := uint64(1) << min(v.Bits(), 12)
	dict := make([]uint64, size)
	for i := range dict {
		dict[i] = rng.Uint64()
	}
	if size > maxFor(v.Bits()) {
		return v, dict
	}
	codes := make([]uint64, v.Len())
	for i := range codes {
		codes[i] = v.Get(i) % size
	}
	return bitpack.FromSlice(v.Bits(), codes), dict
}

// TestDifferentialWindowEdges runs every match, count and aggregate kernel
// at every width 1..64, every length 0..129 and every part count
// 1..maxParts: that covers a vector of k-1, k and k+1 codes for every
// window size k = 64/width, a last window whose successor word does not
// exist, and part edges at every window offset, on the tail window and
// between empty parts.
func TestDifferentialWindowEdges(t *testing.T) {
	for width := uint(1); width <= 64; width++ {
		for n := 0; n <= 129; n++ {
			rng := rand.New(rand.NewSource(int64(width)*1_000_003 + int64(n)))
			codes := make([]uint64, n)
			needle := boundedCode(rng, width)
			for i := range codes {
				// Half the codes hit the needle or a neighbour of it, so
				// lanes match in every position of a window.
				switch rng.Intn(4) {
				case 0:
					codes[i] = needle
				case 1:
					codes[i] = (needle + 1) & maxFor(width)
				default:
					codes[i] = boundedCode(rng, width)
				}
			}
			v := bitpack.FromSlice(width, codes)
			max := maxFor(width)
			ranges := [][2]uint64{
				{needle, needle + 2},
				{0, max/2 + 1},
				{max / 3, max},
				{needle / 2, needle},
				{1, ^uint64(0)},
			}
			for np := 1; np <= maxParts; np++ {
				if got, want := matchEqual(v, needle, nil, np), refMatchEqual(v, needle); !eqSel(got, want) {
					t.Fatalf("matchEqual(w=%d, n=%d, parts=%d): got %v want %v", width, n, np, got, want)
				}
				for _, r := range ranges {
					if got, want := matchRange(v, r[0], r[1], nil, np), refMatchRange(v, r[0], r[1]); !eqSel(got, want) {
						t.Fatalf("matchRange(w=%d, n=%d, [%d,%d), parts=%d): got %v want %v", width, n, r[0], r[1], np, got, want)
					}
				}
			}
			for _, m := range mains(rng, n) {
				checkCountEqual(t, v, needle, m)
				checkMainVisibility(t, v, needle, m)
			}
			checkAggregates(t, rng, v)
		}
	}
}

func TestDifferentialGather(t *testing.T) {
	sweep(t, func(t *testing.T, rng *rand.Rand, v *bitpack.Vector, needle uint64) {
		n := v.Len()
		m := mains(rng, n)[0]
		for _, sel := range [][]int32{
			SelectMain(m.k, m.hide, nil), // dense-ish
			MatchEqual(v, needle, nil),
			sparseSel(n),
		} {
			var got, want [][2]uint64
			Gather(v, sel, func(pos int32, code uint64) bool {
				got = append(got, [2]uint64{uint64(pos), code})
				return true
			})
			for _, p := range sel {
				want = append(want, [2]uint64{uint64(p), v.Get(int(p))})
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Gather: got %d pairs want %d", len(got), len(want))
			}
			// Early stop after k pairs must visit exactly k positions.
			if len(sel) > 1 {
				k := len(sel) / 2
				visits := 0
				Gather(v, sel, func(pos int32, code uint64) bool {
					visits++
					return visits < k
				})
				if visits != k {
					t.Fatalf("Gather early stop: visited %d want %d", visits, k)
				}
			}
		}
	})
}

func sparseSel(n int) []int32 {
	var sel []int32
	for i := 0; i < n; i += 131 {
		sel = append(sel, int32(i))
	}
	return sel
}

func TestDifferentialDecodeRange(t *testing.T) {
	sweep(t, func(t *testing.T, rng *rand.Rand, v *bitpack.Vector, needle uint64) {
		n := v.Len()
		spans := [][2]int{{0, n}, {0, n / 2}, {n / 3, n}, {n / 2, n/2 + min(n/2, 3)}}
		var buf []uint64
		for _, s := range spans {
			from, to := s[0], s[1]
			if from > to {
				continue
			}
			buf = v.DecodeRange(from, to, buf)
			want := refDecodeRange(v, from, to)
			if len(buf) != len(want) {
				t.Fatalf("DecodeRange[%d,%d): len %d want %d", from, to, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("DecodeRange[%d,%d)[%d] = %d want %d", from, to, i, buf[i], want[i])
				}
			}
		}
	})
}

// TestDifferentialPartCount pins the split rule: one part, so the loop
// runs once on the caller and no goroutine starts, under GOMAXPROCS(1) or
// below 2*minPart codes; min(GOMAXPROCS, n/minPart) parts otherwise.  The
// exported kernels must match the references on a vector of 3*minPart+5
// codes both split into three parts and, under GOMAXPROCS(1), serial.
func TestDifferentialPartCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {minPart, 1}, {2*minPart - 1, 1},
		{2 * minPart, 2}, {3*minPart + 5, 3}, {100 * minPart, 4},
	} {
		if got := parts(c.n); got != c.want {
			t.Errorf("GOMAXPROCS(4): parts(%d) = %d want %d", c.n, got, c.want)
		}
	}
	calls := 0
	if got := split(10, 1, 1, func(p, from, to int) int {
		calls++
		return p*100 + from*10 + to
	}, add[int]); got != 10 || calls != 1 {
		t.Errorf("split with one part: %d from %d calls, want part(0, 0, 10) once", got, calls)
	}

	const n = 3*minPart + 5
	rng := rand.New(rand.NewSource(1))
	codes := make([]uint64, n)
	for i := range codes {
		codes[i] = uint64(rng.Intn(1000))
	}
	v := bitpack.FromSlice(10, codes)
	begin, end, e := randomEpochs(rng, n)
	// k stops short of the vector, off every word and block boundary.
	ms := []mainVis{mainAt(rng, begin, end, e), mainAt(rng, begin, end, ^uint64(0)), wholeMain(n, n), wholeMain(n, n-3)}
	dict := make([]uint64, 1024)
	for i := range dict {
		dict[i] = rng.Uint64()
	}
	check := func() {
		t.Helper()
		needle := codes[n/2]
		if got, want := MatchEqual(v, needle, nil), refMatchEqual(v, needle); !eqSel(got, want) {
			t.Fatalf("MatchEqual(parts=%d): got %d positions want %d", parts(n), len(got), len(want))
		}
		if got, want := MatchRange(v, 100, 200, nil), refMatchRange(v, 100, 200); !eqSel(got, want) {
			t.Fatalf("MatchRange(parts=%d): got %d positions want %d", parts(n), len(got), len(want))
		}
		for _, m := range ms {
			if got, want := CountEqual(v, needle, m.k, m.hide), refCountEqual(v, needle, m.vis); got != want {
				t.Fatalf("CountEqual(parts=%d, k=%d, nil hide %v): got %d want %d", parts(m.k), m.k, m.hide == nil, got, want)
			}
			if got, want := SumVisible(v, dict, m.k, m.hide), refSumVisible(v, dict, m.vis); got != want {
				t.Fatalf("SumVisible(parts=%d, k=%d, nil hide %v): got %d want %d", parts(m.k), m.k, m.hide == nil, got, want)
			}
			wmn, wmx, wok := refMinMaxVisible(v, m.vis)
			if gmn, gmx, gok := MinMaxVisible(v, m.k, m.hide); gmn != wmn || gmx != wmx || gok != wok {
				t.Fatalf("MinMaxVisible(parts=%d, k=%d, nil hide %v): got (%d,%d,%v) want (%d,%d,%v)", parts(m.k), m.k, m.hide == nil, gmn, gmx, gok, wmn, wmx, wok)
			}
		}
	}
	check()

	runtime.GOMAXPROCS(1)
	for _, n := range []int{0, 2 * minPart, 100 * minPart} {
		if got := parts(n); got != 1 {
			t.Errorf("GOMAXPROCS(1): parts(%d) = %d want 1", n, got)
		}
	}
	check()
}

func head(s []int32) []int32 {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

// benchSink keeps the benchmarked results from being optimised away.
var benchSink int

// BenchmarkScanKernel is the kernel-level perf artefact beside the
// end-to-end harness in benchmark/.  It runs every main-partition scan
// kernel on a 1M-code column at the packed widths olap_scan's columns have
// (status 3, qty 7, product 10, customer 16, amount 17 bits) plus 8, 19 and
// 32, which together cover windows of whole words and windows that
// straddle two: a sparse equality needle (op=equal) and a ~10% range
// (op=range), each against the scalar per-row bitpack.Vector.Get loop the
// kernels exist to avoid; a count of the needle fused with visibility
// (op=count); and the fused sum and min/max over the visible rows (op=sum,
// op=minmax), with one row in 16 dead in the main's bitmap (impl=kernel)
// and with a nil bitmap, as a main with no dead row is read (impl=whole).
// Each sub-benchmark reports ns/row, and MB/s of the packed code vector.
// Run it with -cpu 1,2: one CPU takes the serial loop, two split the 1M
// codes into two parts.
func BenchmarkScanKernel(b *testing.B) {
	const n = 1 << 20
	hide := make([]uint64, n/64) // every 16th row dead
	for i := range hide {
		hide[i] = 0x0001000100010001
	}
	for _, bits := range []uint{3, 7, 8, 10, 16, 17, 19, 32} {
		rng := rand.New(rand.NewSource(int64(bits)))
		// Codes index a sorted dictionary of card entries; at 32 bits a
		// 2^32-entry dictionary will not fit, so codes stay below 2^20.
		card := uint64(1) << min(bits, 20)
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = rng.Uint64() % card
		}
		dict := make([]uint64, card)
		for i := range dict {
			dict[i] = uint64(i)*7 + 3
		}
		needle := codes[n/2] // ~n/card expected matches
		lo, hi := card/2, card/2+card/10+1
		v := bitpack.FromSlice(bits, codes)

		run := func(op, impl string, fn func()) {
			b.Run(fmt.Sprintf("bits=%d/op=%s/impl=%s", bits, op, impl), func(b *testing.B) {
				b.SetBytes(int64(v.SizeBytes()))
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
		sel := make([]int32, 0, n)
		run("equal", "scalar", func() {
			cnt := 0
			for j := 0; j < n; j++ {
				if v.Get(j) == needle {
					cnt++
				}
			}
			benchSink = cnt
		})
		run("equal", "kernel", func() {
			sel = MatchEqual(v, needle, sel[:0])
			benchSink = len(sel)
		})
		run("range", "scalar", func() {
			cnt := 0
			for j := 0; j < n; j++ {
				if c := v.Get(j); c >= lo && c < hi {
					cnt++
				}
			}
			benchSink = cnt
		})
		run("range", "kernel", func() {
			sel = MatchRange(v, lo, hi, sel[:0])
			benchSink = len(sel)
		})
		for _, impl := range []struct {
			name string
			hide []uint64
		}{{"kernel", hide}, {"whole", nil}} {
			run("count", impl.name, func() {
				benchSink = CountEqual(v, needle, n, impl.hide)
			})
			run("sum", impl.name, func() {
				benchSink = int(SumVisible(v, dict, n, impl.hide))
			})
			run("minmax", impl.name, func() {
				mn, mx, _ := MinMaxVisible(v, n, impl.hide)
				benchSink = int(mn + mx)
			})
		}
	}
}
