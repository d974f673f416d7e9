package core

import (
	"math/rand"
	"testing"

	"hyrise/internal/colstore"
)

// sameMain asserts two main partitions are identical: dictionary values,
// code width and every decoded tuple.
func sameMain(t *testing.T, got, want *colstore.Main[uint64]) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("len %d want %d", got.Len(), want.Len())
	}
	gd, wd := got.Dict().Values(), want.Dict().Values()
	if len(gd) != len(wd) {
		t.Fatalf("dict len %d want %d", len(gd), len(wd))
	}
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("dict[%d]=%d want %d", i, gd[i], wd[i])
		}
	}
	if got.Bits() != want.Bits() {
		t.Fatalf("bits %d want %d", got.Bits(), want.Bits())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.At(i), want.At(i); g != w {
			t.Fatalf("tuple[%d]=%d want %d", i, g, w)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// gcCase runs MergeColumnDrop single-threaded and with several thread counts
// over the same inputs and asserts identical outputs.
func gcCase(t *testing.T, mainVals, deltaVals []uint64, drop []bool) {
	t.Helper()
	m, d := buildColumn(mainVals, deltaVals)
	want, wantSt := MergeColumnDrop(m, d, NewDrop(drop, m.Len()+d.Len()), Options{Threads: 1})
	if err := want.Validate(); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, dr := range drop {
		if dr {
			dropped++
		}
	}
	if want.Len() != len(mainVals)+len(deltaVals)-dropped {
		t.Fatalf("serial GC merge kept %d of %d-%d", want.Len(), len(mainVals)+len(deltaVals), dropped)
	}
	for _, nt := range []int{2, 3, 4, 8} {
		got, st := MergeColumnDrop(m, d, NewDrop(drop, m.Len()+d.Len()), Options{Threads: nt})
		sameMain(t, got, want)
		if st.Dropped != wantSt.Dropped {
			t.Fatalf("nt=%d: Dropped=%d want %d", nt, st.Dropped, wantSt.Dropped)
		}
	}
}

// TestParallelGCMergeEquivalence checks, over random value distributions
// and drop masks large enough to engage the parallel path, that the
// range-partitioned GC merge is tuple-identical to the serial one.
func TestParallelGCMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Exceed parallelStep2Threshold so the parallel Step 2 actually runs.
	for _, shape := range []struct {
		name     string
		nm, nd   int
		card     uint64
		dropFrac float64
	}{
		{"wide-sparse-drop", 3 * parallelStep2Threshold, parallelStep2Threshold / 2, 1 << 20, 0.05},
		{"narrow-heavy-drop", 2 * parallelStep2Threshold, parallelStep2Threshold, 7, 0.6},
		{"byte-codes", parallelStep2Threshold + 1, 333, 200, 0.3},
		{"below-threshold", 1000, 200, 50, 0.4}, // parallel path gated off; still must agree
	} {
		t.Run(shape.name, func(t *testing.T) {
			mainVals := make([]uint64, shape.nm)
			for i := range mainVals {
				mainVals[i] = rng.Uint64() % shape.card
			}
			deltaVals := make([]uint64, shape.nd)
			for i := range deltaVals {
				deltaVals[i] = rng.Uint64() % shape.card
			}
			drop := make([]bool, shape.nm+shape.nd)
			for i := range drop {
				drop[i] = rng.Float64() < shape.dropFrac
			}
			gcCase(t, mainVals, deltaVals, drop)
		})
	}
}

// TestParallelGCMergeEdgeMasks exercises the drop-mask boundary semantics:
// masks shorter than the tuple count (tail kept unconditionally), all-main
// dropped, all-delta dropped, everything dropped.
func TestParallelGCMergeEdgeMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nm, nd := parallelStep2Threshold+17, 1024
	mainVals := make([]uint64, nm)
	for i := range mainVals {
		mainVals[i] = rng.Uint64() % 512
	}
	deltaVals := make([]uint64, nd)
	for i := range deltaVals {
		deltaVals[i] = rng.Uint64() % 512
	}

	t.Run("short-mask", func(t *testing.T) {
		drop := make([]bool, nm/2) // covers only half the main partition
		for i := range drop {
			drop[i] = i%3 == 0
		}
		gcCase(t, mainVals, deltaVals, drop)
	})
	t.Run("drop-all-main", func(t *testing.T) {
		drop := make([]bool, nm+nd)
		for i := 0; i < nm; i++ {
			drop[i] = true
		}
		gcCase(t, mainVals, deltaVals, drop)
	})
	t.Run("drop-all-delta", func(t *testing.T) {
		drop := make([]bool, nm+nd)
		for i := nm; i < nm+nd; i++ {
			drop[i] = true
		}
		gcCase(t, mainVals, deltaVals, drop)
	})
	t.Run("drop-everything", func(t *testing.T) {
		drop := make([]bool, nm+nd)
		for i := range drop {
			drop[i] = true
		}
		m, d := buildColumn(mainVals, deltaVals)
		for _, nt := range []int{1, 4} {
			out, st := MergeColumnDrop(m, d, NewDrop(drop, m.Len()+d.Len()), Options{Threads: nt})
			if out.Len() != 0 || st.Dropped != nm+nd {
				t.Fatalf("nt=%d: len=%d dropped=%d", nt, out.Len(), st.Dropped)
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("nt=%d: %v", nt, err)
			}
		}
	})
	t.Run("drop-prefix-suffix", func(t *testing.T) {
		drop := make([]bool, nm+nd)
		for i := 0; i < 100; i++ {
			drop[i] = true
			drop[nm+nd-1-i] = true
		}
		gcCase(t, mainVals, deltaVals, drop)
	})
}

// TestParallelGCMergeDictShrinks checks that values referenced only by
// dropped tuples leave the dictionary identically on both paths.
func TestParallelGCMergeDictShrinks(t *testing.T) {
	nm := parallelStep2Threshold + 5
	mainVals := make([]uint64, nm)
	for i := range mainVals {
		mainVals[i] = uint64(i % 1000)
	}
	// Drop every tuple holding a value below 500: those values must vanish.
	drop := make([]bool, nm)
	for i, v := range mainVals {
		drop[i] = v < 500
	}
	gcCase(t, mainVals, []uint64{1500, 501}, drop)
	m, d := buildColumn(mainVals, []uint64{1500, 501})
	out, _ := MergeColumnDrop(m, d, NewDrop(drop, m.Len()+d.Len()), Options{Threads: 4})
	for _, v := range out.Dict().Values() {
		if v < 500 {
			t.Fatalf("dropped-only value %d survived in dictionary", v)
		}
	}
}
