package shard

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hyrise/internal/table"
)

// TestCountEqualMatchesLookup is the differential test for the count
// kernel path: on one shard and on three, CountEqual/CountEqualAt must
// equal len(Lookup/LookupAt) — and both must equal a model count — for
// every probed value, latest and under a pinned view, on an unindexed and
// an indexed column, while merges (with real deltas to fold) commit
// underneath.  Lookup ids must also come back ascending, which is what
// lets the fan-in concatenate instead of sort.
func TestCountEqualMatchesLookup(t *testing.T) {
	const domain = 25
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st := newKV(t, shards)
			if err := st.CreateIndex("v"); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			type row struct {
				id   int
				k, v uint64
			}
			var live []row
			counts := func() (byK, byV [domain]int) {
				for _, r := range live {
					byK[r.k]++
					byV[r.v]++
				}
				return
			}
			churn := func(n int) {
				for i := 0; i < n; i++ {
					switch op := rng.Intn(10); {
					case op < 5 || len(live) == 0:
						r := row{k: rng.Uint64() % domain, v: rng.Uint64() % domain}
						id, err := st.Insert([]any{r.k, r.v})
						if err != nil {
							t.Fatal(err)
						}
						r.id = id
						live = append(live, r)
					case op < 8: // update, sometimes moving the key
						j := rng.Intn(len(live))
						r := &live[j]
						r.v = rng.Uint64() % domain
						changes := map[string]any{"v": r.v}
						if rng.Intn(2) == 0 {
							r.k = rng.Uint64() % domain
							changes["k"] = r.k
						}
						id, err := st.Update(r.id, changes)
						if err != nil {
							t.Fatal(err)
						}
						r.id = id
					default:
						j := rng.Intn(len(live))
						if err := st.Delete(live[j].id); err != nil {
							t.Fatal(err)
						}
						live = slices.Delete(live, j, j+1)
					}
				}
			}

			churn(600)
			if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
				t.Fatal(err)
			}
			churn(300) // main + delta + dead versions
			pinned := st.Snapshot()
			defer pinned.Release()
			pinK, pinV := counts()
			churn(300)
			nowK, nowV := counts()

			// From here on, writes only add keys outside the probed domain:
			// merges get real work while the probed counts stay fixed.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next := uint64(1000); ; {
					select {
					case <-stop:
						return
					default:
					}
					for i := 0; i < 50; i++ {
						if _, err := st.Insert([]any{next, next}); err != nil {
							t.Error(err)
							return
						}
						next++
					}
					if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
						t.Error(err)
						return
					}
				}
			}()

			kh, err := ColumnOf[uint64](st, "k")
			if err != nil {
				t.Fatal(err)
			}
			vh, err := ColumnOf[uint64](st, "v")
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, ids []int, count, want int) {
				t.Helper()
				if count != want || len(ids) != want {
					t.Fatalf("%s: count=%d len(lookup)=%d model=%d", what, count, len(ids), want)
				}
				if !slices.IsSorted(ids) {
					t.Fatalf("%s: lookup ids not ascending: %v", what, ids)
				}
			}
			for round := 0; round < 20; round++ {
				for x := uint64(0); x < domain; x++ {
					check(fmt.Sprintf("k=%d latest", x), kh.Lookup(x), kh.CountEqual(x), nowK[x])
					check(fmt.Sprintf("v=%d latest", x), vh.Lookup(x), vh.CountEqual(x), nowV[x])
					check(fmt.Sprintf("k=%d pinned", x), kh.LookupAt(pinned, x), kh.CountEqualAt(pinned, x), pinK[x])
					check(fmt.Sprintf("v=%d pinned", x), vh.LookupAt(pinned, x), vh.CountEqualAt(pinned, x), pinV[x])
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
