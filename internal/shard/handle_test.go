package shard

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"hyrise/internal/table"
)

// rec is the writer's record of one current row: its key's v and q.
type rec struct {
	v uint64
	q uint32
}

// TestHandleFollowsReshard resolves handles on a one-shard store, then
// reshards it 1→2 and 2→3 with writes in between.  After each reshard
// every read on the handles resolved first must equal the same read on a
// freshly resolved handle and the writer's record: latest, At a snapshot
// taken before the reshard, and At one taken after it.
func TestHandleFollowsReshard(t *testing.T) {
	st, err := New("h", table.Schema{
		{Name: "k", Type: table.Uint64},
		{Name: "v", Type: table.Uint64},
		{Name: "q", Type: table.Uint32},
	}, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]int{}
	record := map[uint64]rec{}
	put := func(k uint64, r rec) {
		t.Helper()
		var err error
		if id, ok := ids[k]; ok {
			ids[k], err = st.Update(id, map[string]any{"v": r.v, "q": r.q})
		} else {
			ids[k], err = st.Insert([]any{k, r.v, r.q})
		}
		if err != nil {
			t.Fatal(err)
		}
		record[k] = r
	}
	const n = 1000
	for k := uint64(0); k < n; k++ {
		put(k, rec{k, uint32(k*3) % 997})
	}
	for k := uint64(0); k < n; k += 10 { // versions to reclaim and skip
		put(k, rec{k + 5000, uint32(k)})
	}

	oldKey, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	oldV, err := NumericColumnOf[uint64](st, "v")
	if err != nil {
		t.Fatal(err)
	}
	oldQ, err := NumericColumnOf[uint32](st, "q")
	if err != nil {
		t.Fatal(err)
	}

	for step, shards := range []int{2, 3} {
		before, recBefore := st.Snapshot(), maps.Clone(record)
		if _, err := st.Reshard(context.Background(), shards); err != nil {
			t.Fatal(err)
		}
		freshKey, _ := ColumnOf[uint64](st, "k")
		freshV, _ := NumericColumnOf[uint64](st, "v")
		freshQ, _ := NumericColumnOf[uint32](st, "q")
		for k := range record { // the migration gave every row a new id
			ids[k] = freshKey.Lookup(k)[0]
		}
		for k := uint64(step); k < n; k += 7 { // writes after the migration
			put(k, rec{k + 9000, uint32(k + 1)})
		}
		gone := uint64(3 + step)
		if err := st.Delete(ids[gone]); err != nil {
			t.Fatal(err)
		}
		delete(record, gone)
		after := st.Snapshot()

		for _, c := range []struct {
			name string
			view table.View
			want map[uint64]rec
		}{
			{"latest", table.Latest(), record},
			{"before", before, recBefore},
			{"after", after, record},
		} {
			at := fmt.Sprintf("%s after reshard to %d:", c.name, shards)
			checkKeyReads(t, at, st, c.view, oldKey, freshKey, c.want)
			checkNumReads(t, at, c.view, oldV, freshV, func(r rec) uint64 { return r.v }, c.want)
			checkNumReads(t, at, c.view, oldQ, freshQ, func(r rec) uint32 { return r.q }, c.want)
		}
		before.Release()
		after.Release()

		// Get of a post-migration id: one the old handles never saw.
		id := freshKey.Lookup(7)[0]
		if phys, _ := split(id); phys == 0 {
			t.Fatalf("reshard to %d: key 7 still in partition 0", shards)
		}
		if k, err := oldKey.Get(id); err != nil || k != 7 {
			t.Fatalf("reshard to %d: old key Get(%d) = %d, %v", shards, id, k, err)
		}
		if v, err := oldV.Get(id); err != nil || v != record[7].v {
			t.Fatalf("reshard to %d: old v Get(%d) = %d, %v, want %d", shards, id, v, err, record[7].v)
		}
		if q, err := oldQ.Get(id); err != nil || q != record[7].q {
			t.Fatalf("reshard to %d: old q Get(%d) = %d, %v, want %d", shards, id, q, err, record[7].q)
		}
		for name, pair := range map[string][2]int{
			"k": {oldKey.Distinct(), freshKey.Distinct()},
			"v": {oldV.Distinct(), freshV.Distinct()},
			"q": {oldQ.Distinct(), freshQ.Distinct()},
		} {
			if pair[0] != pair[1] {
				t.Fatalf("reshard to %d: old %s Distinct = %d, fresh %d", shards, name, pair[0], pair[1])
			}
		}
		if got := oldKey.Distinct(); got != n {
			t.Fatalf("reshard to %d: key Distinct = %d, want %d", shards, got, n)
		}
	}
}

// checkKeyReads checks the key handle's reads at view against a fresh
// handle and the record, whose keys are the current rows at view.
func checkKeyReads(t *testing.T, at string, st *Table, view table.View, old, fresh *Handle[uint64], want map[uint64]rec) {
	t.Helper()
	for k := range uint64(1000) {
		got := old.LookupAt(view, k)
		if !slices.Equal(got, fresh.LookupAt(view, k)) {
			t.Fatalf("%s Lookup(%d) differs from a fresh handle", at, k)
		}
		_, live := want[k]
		if live != (len(got) == 1) || len(got) > 1 {
			t.Fatalf("%s Lookup(%d) = %v, live %v", at, k, got, live)
		}
		if live {
			row, err := st.Row(got[0])
			if err != nil || row[0] != k || row[1] != want[k].v || row[2] != want[k].q {
				t.Fatalf("%s Row(%d) = %v, %v, want %d %+v", at, got[0], row, err, k, want[k])
			}
		}
		if c := old.CountEqualAt(view, k); c != len(got) {
			t.Fatalf("%s CountEqual(%d) = %d, want %d", at, k, c, len(got))
		}
	}
	rng := old.RangeAt(view, 100, 399)
	if !slices.Equal(rng, fresh.RangeAt(view, 100, 399)) {
		t.Fatalf("%s Range differs from a fresh handle", at)
	}
	inRange := 0
	for k := range want {
		if k >= 100 && k <= 399 {
			inRange++
		}
	}
	if len(rng) != inRange {
		t.Fatalf("%s Range = %d rows, want %d", at, len(rng), inRange)
	}
	scanned := map[uint64]int{}
	old.ScanAt(view, func(id int, k uint64) bool { scanned[k] = id; return true })
	if len(scanned) != len(want) {
		t.Fatalf("%s Scan = %d keys, want %d", at, len(scanned), len(want))
	}
	fresh.ScanAt(view, func(id int, k uint64) bool {
		if scanned[k] != id {
			t.Fatalf("%s Scan: key %d at id %d, fresh handle %d", at, k, scanned[k], id)
		}
		return true
	})
}

// checkNumReads checks a numeric handle's reads at view against a fresh
// handle and the record's field.
func checkNumReads[V interface{ ~uint32 | ~uint64 }](t *testing.T, at string, view table.View, old, fresh *NumericHandle[V], field func(rec) V, want map[uint64]rec) {
	t.Helper()
	var sum uint64
	var lo, hi V
	first := true
	for _, r := range want {
		x := field(r)
		sum += uint64(x)
		if first || x < lo {
			lo = x
		}
		if first || x > hi {
			hi = x
		}
		first = false
	}
	if got := old.SumAt(view); got != sum || got != fresh.SumAt(view) {
		t.Fatalf("%s Sum = %d, fresh %d, want %d", at, got, fresh.SumAt(view), sum)
	}
	if got, ok := old.MinAt(view); !ok || got != lo {
		t.Fatalf("%s Min = %d, %v, want %d", at, got, ok, lo)
	}
	if got, ok := old.MaxAt(view); !ok || got != hi {
		t.Fatalf("%s Max = %d, %v, want %d", at, got, ok, hi)
	}
	var total uint64
	old.ScanAt(view, func(_ int, v V) bool { total += uint64(v); return true })
	if total != sum {
		t.Fatalf("%s Scan sums to %d, want %d", at, total, sum)
	}
}
