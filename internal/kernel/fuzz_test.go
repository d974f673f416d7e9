package kernel

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"hyrise/internal/bitpack"
)

// FuzzScanKernels feeds random widths, code payloads and predicates
// through every scan kernel and cross-checks against the scalar
// reference implementations from the differential suite.
func FuzzScanKernels(f *testing.F) {
	f.Add(uint8(8), uint64(3), uint64(1), uint64(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 3, 3})
	f.Add(uint8(1), uint64(1), uint64(0), uint64(2), []byte{0xff, 0x00, 0xaa})
	f.Add(uint8(13), uint64(100), uint64(50), uint64(200), make([]byte, 130))
	f.Add(uint8(64), uint64(0), uint64(0), ^uint64(0), []byte{9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, widthRaw uint8, needle, lo, hi uint64, payload []byte) {
		width := uint(widthRaw%64) + 1 // 1..64
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

		if got, want := MatchEqual(v, needle, nil), refMatchEqual(v, needle); !eqSel(got, want) {
			t.Fatalf("MatchEqual(w=%d, code=%d): got %v want %v", width, needle, got, want)
		}
		if got, want := MatchRange(v, lo, hi, nil), refMatchRange(v, lo, hi); !eqSel(got, want) {
			t.Fatalf("MatchRange(w=%d, [%d,%d)): got %v want %v", width, lo, hi, got, want)
		}

		// Derive epoch columns from the payload too, so visibility
		// fusion sees fuzz-driven patterns.
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
		if got, want := CountEqual(v, needle, begin, end, e), refCountEqual(v, needle, begin, end, e); got != want {
			t.Fatalf("CountEqual(w=%d): got %d want %d", width, got, want)
		}
		sel := MatchEqual(v, needle, nil)
		if got, want := FilterVisible(sel, begin, end, e), refFilterVisible(refMatchEqual(v, needle), begin, end, e); !eqSel(got, want) {
			t.Fatalf("FilterVisible(w=%d): got %v want %v", width, got, want)
		}
		if got, want := SelectVisible(begin, end, e, 0, n, nil), refSelectVisible(begin, end, e, 0, n); !eqSel(got, want) {
			t.Fatalf("SelectVisible(w=%d): got %v want %v", width, got, want)
		}

		// The aggregates read a dictionary drawn from the payload too.
		dv, dict := indexable(rand.New(rand.NewSource(int64(needle))), v)
		if got, want := SumVisible(dv, dict, begin, end, e), refSumVisible(dv, dict, begin, end, e); got != want {
			t.Fatalf("SumVisible(w=%d): got %d want %d", width, got, want)
		}
		wmn, wmx, wok := refMinMaxVisible(v, begin, end, e)
		if gmn, gmx, gok := MinMaxVisible(v, begin, end, e); gmn != wmn || gmx != wmx || gok != wok {
			t.Fatalf("MinMaxVisible(w=%d): got (%d,%d,%v) want (%d,%d,%v)", width, gmn, gmx, gok, wmn, wmx, wok)
		}
	})
}
