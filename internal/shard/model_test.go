package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hyrise/internal/table"
)

// TestModelBasedShardedEquivalence replays a random sequence of inserts,
// updates (including key changes, which may relocate rows across shards),
// deletes and merges against both a 4-shard table and a flat reference
// table.Table, asserting after every merge that the two expose identical
// visible data: the same multiset of valid (k, v) rows, the same lookup
// and range answers for sampled keys, and the same aggregates.  Row ids
// differ by construction (global ids interleave shards), so the test
// tracks each live row under both id spaces.
func TestModelBasedShardedEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		shards int
		seed   int64
	}{{4, 1}, {4, 2}, {8, 3}} {
		t.Run(fmt.Sprintf("shards=%d/seed=%d", cfg.shards, cfg.seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(cfg.seed))
			st := newKV(t, cfg.shards)
			flat, err := table.New("ref", kvSchema())
			if err != nil {
				t.Fatal(err)
			}
			sh, _ := ColumnOf[uint64](st, "k")
			sn, _ := NumericColumnOf[uint64](st, "v")
			// The reference answers the plans the handles run.
			flatRead := func(p table.Plan) *table.Selection {
				t.Helper()
				s, err := flat.Read(table.Latest(), p)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			// live pairs the sharded gid and flat row id of each valid row.
			type pair struct{ gid, fid int }
			var live []pair

			const domain = 40 // dense key collisions
			checkEquiv := func(step int) {
				t.Helper()
				if got, want := st.ValidRows(), flat.ValidRows(); got != want {
					t.Fatalf("step %d: valid rows %d want %d", step, got, want)
				}
				if got, want := st.Rows(), flat.Rows(); got != want {
					t.Fatalf("step %d: stored versions %d want %d", step, got, want)
				}
				// Per-key lookups return the same visible (k, v) multisets.
				for k := uint64(0); k < domain; k++ {
					gotRows := sh.Lookup(k)
					wantRows := flatRead(table.Plan{Preds: []table.Pred{{Col: 0, Lo: k}}}).Rows
					if len(gotRows) != len(wantRows) {
						t.Fatalf("step %d: lookup(%d) %d rows want %d",
							step, k, len(gotRows), len(wantRows))
					}
					gotVals := rowVals(t, st, gotRows)
					wantVals := flatVals(t, flat, wantRows)
					for i := range wantVals {
						if gotVals[i] != wantVals[i] {
							t.Fatalf("step %d: lookup(%d) values %v want %v",
								step, k, gotVals, wantVals)
						}
					}
				}
				// A random range agrees on the same multiset.
				lo := rng.Uint64() % domain
				hi := lo + rng.Uint64()%10
				gotVals := rowVals(t, st, sh.Range(lo, hi))
				wantVals := flatVals(t, flat, flatRead(table.Plan{Preds: []table.Pred{{Col: 0, Range: true, Lo: lo, Hi: hi}}}).Rows)
				if len(gotVals) != len(wantVals) {
					t.Fatalf("step %d: range(%d,%d) %d rows want %d",
						step, lo, hi, len(gotVals), len(wantVals))
				}
				for i := range wantVals {
					if gotVals[i] != wantVals[i] {
						t.Fatalf("step %d: range(%d,%d) mismatch", step, lo, hi)
					}
				}
				// Aggregates agree.
				if got, want := sn.Sum(), flatRead(table.Plan{Reduce: table.Sum, Col: 1}).Sum; got != want {
					t.Fatalf("step %d: sum %d want %d", step, got, want)
				}
				seen := map[uint64]struct{}{}
				table.AddDistinct(flat, 0, seen)
				if got, want := sh.Distinct(), len(seen); got != want {
					t.Fatalf("step %d: distinct %d want %d", step, got, want)
				}
			}

			for step := 0; step < 40; step++ {
				for op := 0; op < 100; op++ {
					switch rng.Intn(10) {
					case 0, 1, 2, 3: // insert
						k, v := rng.Uint64()%domain, rng.Uint64()%1000
						gid, err := st.Insert([]any{k, v})
						if err != nil {
							t.Fatal(err)
						}
						fid, err := flat.Insert([]any{k, v})
						if err != nil {
							t.Fatal(err)
						}
						live = append(live, pair{gid, fid})
					case 4, 5, 6: // update a live row; half the time change the key
						if len(live) == 0 {
							continue
						}
						i := rng.Intn(len(live))
						p := live[i]
						changes := map[string]any{"v": rng.Uint64() % 1000}
						if rng.Intn(2) == 0 {
							changes["k"] = rng.Uint64() % domain
						}
						ngid, err := st.Update(p.gid, changes)
						if err != nil {
							t.Fatalf("sharded update: %v", err)
						}
						nfid, err := flat.Update(p.fid, changes)
						if err != nil {
							t.Fatalf("flat update: %v", err)
						}
						live[i] = pair{ngid, nfid}
					case 7: // delete a live row
						if len(live) == 0 {
							continue
						}
						i := rng.Intn(len(live))
						p := live[i]
						if err := st.Delete(p.gid); err != nil {
							t.Fatalf("sharded delete: %v", err)
						}
						if err := flat.Delete(p.fid); err != nil {
							t.Fatalf("flat delete: %v", err)
						}
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					case 8: // stale-id operations fail identically
						if len(live) == 0 {
							continue
						}
						p := live[rng.Intn(len(live))]
						// Delete then retry through both: the second
						// attempt must fail on both sides.
						_ = st.Delete(p.gid)
						_ = flat.Delete(p.fid)
						gerr := st.Delete(p.gid)
						ferr := flat.Delete(p.fid)
						if (gerr == nil) != (ferr == nil) {
							t.Fatalf("stale delete divergence: %v vs %v", gerr, ferr)
						}
						for i := range live {
							if live[i] == p {
								live[i] = live[len(live)-1]
								live = live[:len(live)-1]
								break
							}
						}
					default: // read-only op keeps the mix honest
						k := rng.Uint64() % domain
						_ = sh.Lookup(k)
					}
				}
				// Merge both sides with varied configurations, then verify.
				if step%3 == 2 {
					if _, err := st.RequestMerge(context.Background(), table.MergeOptions{
						Threads: 1 + rng.Intn(4*cfg.shards),
					}); err != nil {
						t.Fatal(err)
					}
					if _, err := flat.Merge(context.Background(), table.MergeOptions{}); err != nil {
						t.Fatal(err)
					}
				}
				checkEquiv(step)
			}
		})
	}
}

// rowVals materializes and sorts the (k, v) values of sharded rows so
// multisets compare order-independently.
func rowVals(t *testing.T, st *Table, gids []int) [][2]uint64 {
	t.Helper()
	out := make([][2]uint64, 0, len(gids))
	for _, gid := range gids {
		row, err := st.Row(gid)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]uint64{row[0].(uint64), row[1].(uint64)})
	}
	sortPairs(out)
	return out
}

func flatVals(t *testing.T, ft *table.Table, rows []int) [][2]uint64 {
	t.Helper()
	out := make([][2]uint64, 0, len(rows))
	for _, r := range rows {
		row, err := ft.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]uint64{row[0].(uint64), row[1].(uint64)})
	}
	sortPairs(out)
	return out
}

func sortPairs(p [][2]uint64) {
	sort.Slice(p, func(i, j int) bool {
		if p[i][0] != p[j][0] {
			return p[i][0] < p[j][0]
		}
		return p[i][1] < p[j][1]
	})
}
