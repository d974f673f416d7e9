package hyrise_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hyrise"
)

// mirrorSchema has two uint64 columns the tests keep identical per row:
// "a" gets a group-key index, "b" stays scan-only, so every read on "a"
// has a byte-comparable shadow on "b".
func mirrorSchema() hyrise.Schema {
	return hyrise.Schema{
		{Name: "id", Type: hyrise.Uint64},
		{Name: "a", Type: hyrise.Uint64},
		{Name: "b", Type: hyrise.Uint64},
	}
}

func newMirrorStores(t *testing.T) map[string]*hyrise.Table {
	t.Helper()
	flat, err := hyrise.NewTable("mirror", mirrorSchema())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := hyrise.NewShardedTable("mirror", mirrorSchema(), "id", 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*hyrise.Table{"shards=1": flat, "shards=8": sharded}
}

// TestStoreIndexEquivalence is the public-surface acceptance test for
// secondary indexes: on both topologies, every indexed read — direct
// handle reads, pinned-view reads and Query — must return exactly what
// the scan path returns, across churn, merges and garbage collection.
func TestStoreIndexEquivalence(t *testing.T) {
	for name, st := range newMirrorStores(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			ha, err := hyrise.ColumnOf[uint64](st, "a")
			if err != nil {
				t.Fatal(err)
			}
			hb, err := hyrise.ColumnOf[uint64](st, "b")
			if err != nil {
				t.Fatal(err)
			}
			const domain = 100
			insert := func(n int) {
				t.Helper()
				rows := make([][]any, n)
				for i := range rows {
					v := uint64(rng.Intn(domain))
					rows[i] = []any{uint64(rng.Int63()), v, v}
				}
				if _, err := st.InsertRows(rows); err != nil {
					t.Fatal(err)
				}
			}
			merge := func() {
				t.Helper()
				if _, err := st.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			// check compares the indexed column against its shadow for a
			// sample of point and range reads, latest and pinned.
			check := func(stage string) {
				t.Helper()
				view := st.Snapshot()
				defer view.Release()
				for i := 0; i < 10; i++ {
					v := uint64(rng.Intn(domain))
					if got, want := ha.Lookup(v), hb.Lookup(v); !equalIDs(got, want) {
						t.Fatalf("%s: Lookup(%d) indexed %v scan %v", stage, v, got, want)
					}
					if got, want := ha.LookupAt(view, v), hb.LookupAt(view, v); !equalIDs(got, want) {
						t.Fatalf("%s: LookupAt(%d) indexed %v scan %v", stage, v, got, want)
					}
					lo := uint64(rng.Intn(domain))
					hi := lo + uint64(rng.Intn(10))
					if got, want := ha.Range(lo, hi), hb.Range(lo, hi); !equalIDs(got, want) {
						t.Fatalf("%s: Range(%d,%d) indexed %v scan %v", stage, lo, hi, got, want)
					}
					if got, want := ha.RangeAt(view, lo, hi), hb.RangeAt(view, lo, hi); !equalIDs(got, want) {
						t.Fatalf("%s: RangeAt(%d,%d) indexed %v scan %v", stage, lo, hi, got, want)
					}
					if got, want := ha.CountEqual(v), hb.CountEqual(v); got != want {
						t.Fatalf("%s: CountEqual(%d) indexed %d scan %d", stage, v, got, want)
					}
					qa, err := hyrise.Query(st, []hyrise.Filter{{Column: "a", Op: hyrise.FilterEq, Value: v}}, nil)
					if err != nil {
						t.Fatal(err)
					}
					qb, err := hyrise.Query(st, []hyrise.Filter{{Column: "b", Op: hyrise.FilterEq, Value: v}}, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !equalIDs(qa.Rows, qb.Rows) {
						t.Fatalf("%s: Query(=%d) indexed %v scan %v", stage, v, qa.Rows, qb.Rows)
					}
				}
			}

			insert(2000)
			merge()
			if err := st.CreateIndex("a"); err != nil {
				t.Fatal(err)
			}
			if err := st.CreateIndex("a"); err != nil { // idempotent
				t.Fatal(err)
			}
			if err := st.CreateIndex("nope"); err == nil {
				t.Fatal("CreateIndex on unknown column succeeded")
			}
			check("after first index")

			// Churn: overwrite, delete, insert, merge (GC on by default),
			// re-check at every stage so the index is exercised with a
			// delta tail, right after a rebuild, and against history.
			for round := 0; round < 3; round++ {
				stage := fmt.Sprintf("round %d", round)
				insert(500)
				for i := 0; i < 100; i++ {
					v := uint64(rng.Intn(domain))
					ids := hb.Lookup(v)
					if len(ids) == 0 {
						continue
					}
					id := ids[rng.Intn(len(ids))]
					if rng.Intn(2) == 0 {
						nv := uint64(rng.Intn(domain))
						if _, err := st.Update(id, map[string]any{"a": nv, "b": nv}); err != nil {
							t.Fatal(err)
						}
					} else if err := st.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				check(stage + " pre-merge")
				merge()
				check(stage + " post-merge")
			}

			stats := st.IndexStats()
			if len(stats) != 1 || stats[0].Column != "a" {
				t.Fatalf("IndexStats = %+v, want one entry for a", stats)
			}
			if stats[0].Postings != st.MainRows() {
				t.Fatalf("postings %d want main rows %d", stats[0].Postings, st.MainRows())
			}
			if stats[0].Builds == 0 {
				t.Fatalf("no builds recorded: %+v", stats[0])
			}
		})
	}
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
