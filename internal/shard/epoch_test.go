package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrise/internal/table"
)

// movingStore returns a two-partition store holding n rows with v = 1 and
// keys that a writer can move between the partitions: row i lives under
// key homes[i][0] (partition 0) or homes[i][1] (partition 1), all keys
// below 4n.
func movingStore(t *testing.T, n int) (*Table, [][2]uint64) {
	t.Helper()
	st := newKV(t, 2)
	homes := make([][2]uint64, n)
	next := [2]int{}
	for k := uint64(0); next[0] < n || next[1] < n; k++ {
		s, err := st.shardFor(k)
		if err != nil {
			t.Fatal(err)
		}
		if next[s] < n {
			homes[next[s]][s] = k
			next[s]++
		}
	}
	for i := range homes {
		if homes[i][0] >= uint64(4*n) || homes[i][1] >= uint64(4*n) {
			t.Fatalf("row %d homes %v lie beyond %d", i, homes[i], 4*n)
		}
		if _, err := st.Insert([]any{homes[i][0], uint64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	return st, homes
}

// moveRows runs one writer that moves the rows between the partitions
// with key-changing updates until stop is closed.  A move invalidates the
// old version and inserts the new one under both partition locks with one
// epoch stamp, so the rows' count, their sum and their value set never
// change at any epoch.
func moveRows(t *testing.T, st *Table, homes [][2]uint64, stop <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ids := make([]int, len(homes))
		for i := range ids {
			ids[i] = i // inserted first, on partition 0: global = local
		}
		for round := 1; ; round++ {
			for i := range homes {
				select {
				case <-stop:
					return
				default:
				}
				id, err := st.Update(ids[i], map[string]any{"k": homes[i][round%2]})
				if err != nil {
					t.Errorf("move row %d: %v", i, err)
					return
				}
				ids[i] = id
			}
		}
	}()
	return &wg
}

// TestLatestReadsOneEpoch: every latest read over several partitions reads
// them at one epoch.  While one writer moves rows between the two
// partitions, Lookup, Range, CountEqual, Sum, Min, Scan, ValidRows and
// ValidRowsAt(Latest()) must see every row exactly once; a read at each
// partition's own "now" can count a row 0 or 2 times.
func TestLatestReadsOneEpoch(t *testing.T) {
	const n = 2000
	st, homes := movingStore(t, n)
	k, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	v, err := NumericColumnOf[uint64](st, "v")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	wg := moveRows(t, st, homes, stop)
	defer func() {
		close(stop)
		wg.Wait()
	}()
	bad := 0
	check := func(what string, got int) {
		if got != n {
			bad++
			t.Errorf("%s = %d, want %d", what, got, n)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for reads := 0; time.Now().Before(deadline) && bad == 0; reads++ {
		check("len(Lookup(v = 1))", len(v.Lookup(1)))
		check("len(Range(k))", len(k.Range(0, 4*n)))
		check("CountEqual(v = 1)", v.CountEqual(1))
		check("Sum(v)", int(v.Sum()))
		check("ValidRows", st.ValidRows())
		check("ValidRowsAt(Latest())", st.ValidRowsAt(table.Latest()))
		scanned := 0
		v.Scan(func(int, uint64) bool { scanned++; return true })
		check("rows scanned", scanned)
		if mn, ok := v.Min(); !ok || mn != 1 {
			t.Fatalf("Min(v) = %d, %v after %d reads", mn, ok, reads)
		}
	}
}

// TestLatestReadsDuringReshard: latest reads through handles resolved
// before any reshard see every row exactly once while reshards migrate
// the rows back and forth.  A read that loads the shard map before its
// pin (or, on one partition, before its lock) can miss rows a reshard
// published and moved in between.
func TestLatestReadsDuringReshard(t *testing.T) {
	const n = 1000
	st := newKV(t, 1)
	for i := range n {
		if _, err := st.Insert([]any{uint64(i), uint64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := NumericColumnOf[uint64](st, "v")
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if got := v.Sum(); got != n {
					t.Errorf("Sum(v) = %d, want %d", got, n)
					stop.Store(true)
				}
			}
		}()
	}
	for i := 0; i < 12 && !stop.Load(); i++ {
		if _, err := st.Reshard(context.Background(), 1+i%3); err != nil {
			t.Error(err)
			break
		}
		scanned := 0
		v.Scan(func(int, uint64) bool { scanned++; return true })
		if c := v.CountEqual(1); scanned != n || c != n {
			t.Errorf("after reshard %d: %d rows scanned, CountEqual %d, want %d", i, scanned, c, n)
		}
	}
	stop.Store(true)
	wg.Wait()
}
