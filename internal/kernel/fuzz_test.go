package kernel

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"hyrise/internal/bitpack"
)

// FuzzScanKernels feeds random widths, code payloads, predicates and part
// counts through every scan kernel, every kernel that takes epochs both
// with payload-derived and with nil epochs, and cross-checks against the
// scalar reference implementations from the differential suite.
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
		if got, want := countEqual(v, needle, begin, end, e, np), refCountEqual(v, needle, begin, end, e); got != want {
			t.Fatalf("countEqual(w=%d, parts=%d): got %d want %d", width, np, got, want)
		}
		sel := matchEqual(v, needle, nil, np)
		if got, want := FilterVisible(sel, begin, end, e), refFilterVisible(refMatchEqual(v, needle), begin, end, e); !eqSel(got, want) {
			t.Fatalf("FilterVisible(w=%d): got %v want %v", width, got, want)
		}
		if got, want := SelectVisible(begin, end, e, 0, n, nil), refSelectVisible(begin, end, e, 0, n); !eqSel(got, want) {
			t.Fatalf("SelectVisible(w=%d): got %v want %v", width, got, want)
		}

		// The aggregates read a dictionary drawn from the payload too.
		dv, dict := indexable(rand.New(rand.NewSource(int64(needle))), v)
		if got, want := sumVisible(dv, dict, begin, end, e, np), refSumVisible(dv, dict, begin, end, e); got != want {
			t.Fatalf("sumVisible(w=%d, parts=%d): got %d want %d", width, np, got, want)
		}
		wmn, wmx, wok := refMinMaxVisible(v, begin, end, e)
		if gmn, gmx, gok := minMaxVisible(v, begin, end, e, np); gmn != wmn || gmx != wmx || gok != wok {
			t.Fatalf("minMaxVisible(w=%d, parts=%d): got (%d,%d,%v) want (%d,%d,%v)", width, np, gmn, gmx, gok, wmn, wmx, wok)
		}

		// Nil epochs: every position visible, as over all-visible columns.
		zb, ze := allVisible(n)
		if got, want := countEqual(v, needle, nil, nil, e, np), refCountEqual(v, needle, zb, ze, e); got != want {
			t.Fatalf("countEqual(w=%d, nil epochs, parts=%d): got %d want %d", width, np, got, want)
		}
		if got, want := FilterVisible(matchEqual(v, needle, nil, np), nil, nil, e), refMatchEqual(v, needle); !eqSel(got, want) {
			t.Fatalf("FilterVisible(w=%d, nil epochs): got %v want %v", width, got, want)
		}
		if got, want := CountSelVisible(refMatchEqual(v, needle), nil, nil, e), len(refMatchEqual(v, needle)); got != want {
			t.Fatalf("CountSelVisible(w=%d, nil epochs) = %d want %d", width, got, want)
		}
		if got, want := SelectVisible(nil, nil, e, 0, n, nil), refSelectVisible(zb, ze, e, 0, n); !eqSel(got, want) {
			t.Fatalf("SelectVisible(w=%d, nil epochs): got %v want %v", width, got, want)
		}
		if got, want := CountVisible(nil, nil, e, 0, n), n; got != want {
			t.Fatalf("CountVisible(w=%d, nil epochs) = %d want %d", width, got, want)
		}
		if got, want := sumVisible(dv, dict, nil, nil, e, np), refSumVisible(dv, dict, zb, ze, e); got != want {
			t.Fatalf("sumVisible(w=%d, nil epochs, parts=%d): got %d want %d", width, np, got, want)
		}
		amn, amx, aok := refMinMaxVisible(v, zb, ze, e)
		if gmn, gmx, gok := minMaxVisible(v, nil, nil, e, np); gmn != amn || gmx != amx || gok != aok {
			t.Fatalf("minMaxVisible(w=%d, nil epochs, parts=%d): got (%d,%d,%v) want (%d,%d,%v)", width, np, gmn, gmx, gok, amn, amx, aok)
		}
	})
}
