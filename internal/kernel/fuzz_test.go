package kernel

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"hyrise/internal/bitpack"
)

// FuzzScanKernels feeds random widths, code payloads, predicates and part
// counts through every scan kernel — the delta's flat visibility kernels
// over payload-derived epochs, every main-partition kernel at the (k, hide)
// those epochs give at a read epoch and at latest, and with nil hides at
// k = n and at a payload-chosen k — and cross-checks against the scalar
// reference implementations from the differential suite.
func FuzzScanKernels(f *testing.F) {
	f.Add(uint8(8), uint64(3), uint64(1), uint64(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 3, 3}, uint8(0))
	f.Add(uint8(1), uint64(1), uint64(0), uint64(2), []byte{0xff, 0x00, 0xaa}, uint8(1))
	f.Add(uint8(13), uint64(100), uint64(50), uint64(200), make([]byte, 130), uint8(2))
	f.Add(uint8(64), uint64(0), uint64(0), ^uint64(0), []byte{9, 9, 9, 9, 9, 9, 9, 9}, uint8(4))
	f.Fuzz(func(t *testing.T, widthRaw uint8, needle, lo, hi uint64, payload []byte, partsRaw uint8) {
		width := uint(widthRaw%64) + 1 // 1..64
		np := int(partsRaw%8) + 1      // 1..8
		max := maxFor(width)
		needle &= max
		lo &= max
		if hi > max {
			hi = max + 1
		}
		if max == ^uint64(0) {
			hi = needle // keep hi meaningful at width 64
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if len(payload) > 1<<14 {
			payload = payload[:1<<14]
		}

		// Decode the payload into codes, 8 bytes per element, masked
		// to the width so every code is representable.
		n := len(payload) / 2
		codes := make([]uint64, n)
		for i := range codes {
			var buf [8]byte
			copy(buf[:], payload[i*2:])
			codes[i] = binary.LittleEndian.Uint64(buf[:]) & max
		}
		if n > 0 {
			codes[n/2] = needle // guarantee at least one potential hit
		}
		v := bitpack.FromSlice(width, codes)

		if got, want := matchEqual(v, needle, nil, np), refMatchEqual(v, needle); !eqSel(got, want) {
			t.Fatalf("matchEqual(w=%d, code=%d, parts=%d): got %v want %v", width, needle, np, got, want)
		}
		if got, want := matchRange(v, lo, hi, nil, np), refMatchRange(v, lo, hi); !eqSel(got, want) {
			t.Fatalf("matchRange(w=%d, [%d,%d), parts=%d): got %v want %v", width, lo, hi, np, got, want)
		}

		// Derive epoch columns from the payload too, so visibility sees
		// fuzz-driven patterns: the delta's flat forms over them as they
		// are, the main's (k, hide) over them with begin sorted.
		begin := make([]uint64, n)
		end := make([]uint64, n)
		for i := 0; i < n; i++ {
			b := uint64(payload[i*2]%13) + 1
			begin[i] = b
			if payload[i*2+1]%3 == 0 {
				end[i] = 0
			} else {
				end[i] = b + uint64(payload[i*2+1]%7)
			}
		}
		e := (needle % 16) + 1
		sel := matchEqual(v, needle, nil, np)
		if got, want := FilterVisible(sel, begin, end, e), refFilterVisible(refMatchEqual(v, needle), begin, end, e); !eqSel(got, want) {
			t.Fatalf("FilterVisible(w=%d): got %v want %v", width, got, want)
		}
		if got, want := SelectVisible(begin, end, e, 0, n, nil), refSelectVisible(begin, end, e, 0, n); !eqSel(got, want) {
			t.Fatalf("SelectVisible(w=%d): got %v want %v", width, got, want)
		}
		sortedBegin := slices.Clone(begin)
		slices.Sort(sortedBegin)
		rng := rand.New(rand.NewSource(int64(needle)))
		// The aggregates read a dictionary drawn from the payload too.
		dv, dict := indexable(rng, v)
		for _, m := range []mainVis{
			mainAt(rng, sortedBegin, end, e),
			mainAt(rng, sortedBegin, end, ^uint64(0)),
			wholeMain(n, n),
			wholeMain(n, int(lo%uint64(n+1))),
		} {
			if got, want := countEqual(v, needle, m.k, m.hide, np), refCountEqual(v, needle, m.vis); got != want {
				t.Fatalf("countEqual(w=%d, k=%d, nil hide %v, parts=%d): got %d want %d", width, m.k, m.hide == nil, np, got, want)
			}
			matches := refMatchEqual(v, needle)
			wantF := refFilter(matches, m.vis)
			if got := CountSelMain(matches, m.k, m.dead, m.seen); got != len(wantF) {
				t.Fatalf("CountSelMain(w=%d, k=%d, nil hide %v) = %d want %d", width, m.k, m.hide == nil, got, len(wantF))
			}
			if got := FilterMain(matches, m.k, m.dead, m.seen); !eqSel(got, wantF) {
				t.Fatalf("FilterMain(w=%d, k=%d, nil hide %v): got %v want %v", width, m.k, m.hide == nil, got, wantF)
			}
			if got, want := SelectMain(m.k, m.hide, nil), refSel(m.vis); !eqSel(got, want) {
				t.Fatalf("SelectMain(w=%d, k=%d, nil hide %v): got %v want %v", width, m.k, m.hide == nil, got, want)
			}
			if got, want := CountMain(m.k, m.hide), len(refSel(m.vis)); got != want {
				t.Fatalf("CountMain(w=%d, k=%d, nil hide %v) = %d want %d", width, m.k, m.hide == nil, got, want)
			}
			if got, want := sumVisible(dv, dict, m.k, m.hide, np), refSumVisible(dv, dict, m.vis); got != want {
				t.Fatalf("sumVisible(w=%d, k=%d, nil hide %v, parts=%d): got %d want %d", width, m.k, m.hide == nil, np, got, want)
			}
			wmn, wmx, wok := refMinMaxVisible(v, m.vis)
			if gmn, gmx, gok := minMaxVisible(v, m.k, m.hide, np); gmn != wmn || gmx != wmx || gok != wok {
				t.Fatalf("minMaxVisible(w=%d, k=%d, nil hide %v, parts=%d): got (%d,%d,%v) want (%d,%d,%v)", width, m.k, m.hide == nil, np, gmn, gmx, gok, wmn, wmx, wok)
			}
		}
	})
}
