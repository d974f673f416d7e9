package hyrise_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hyrise"
	"hyrise/internal/table"
)

// TestOneShardStoreIsItsPartition replays one seeded op stream — inserts,
// batches, updates, deletes, stale-id ops, GC merges, snapshot reads —
// against hyrise.NewTable and against a bare partition, and requires the
// two to be indistinguishable: every op hands out the same row id, every
// read returns the same ids in the same order, and the stored ids, values
// and begin/end epochs are identical.  This is the "global id of partition
// 0 is the local id" identity the one-shard store is built on.
func TestOneShardStoreIsItsPartition(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st, err := hyrise.NewTable("kv", kvSchema())
			if err != nil {
				t.Fatal(err)
			}
			bare, err := table.New("kv", kvSchema())
			if err != nil {
				t.Fatal(err)
			}
			sk, _ := hyrise.ColumnOf[uint64](st, "k")
			sv, _ := hyrise.NumericColumnOf[uint64](st, "v")
			// The partition answers the plans the store's handles run.
			read := func(view hyrise.ReadView, p table.Plan) *table.Selection {
				t.Helper()
				s, err := bare.Read(view, p)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			keyIs := func(k uint64) []table.Pred { return []table.Pred{{Col: 0, Lo: k}} }

			same := func(what string, a, b any) {
				t.Helper()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: store %v, partition %v", what, a, b)
				}
			}
			sameErr := func(what string, a, b error) {
				t.Helper()
				if (a == nil) != (b == nil) {
					t.Fatalf("%s: store err %v, partition err %v", what, a, b)
				}
			}
			const domain = 30
			compare := func(sview, bview hyrise.ReadView) {
				t.Helper()
				same("epoch", sview.Epoch(), bview.Epoch())
				same("valid rows", st.ValidRowsAt(sview), bare.ValidRowsAt(bview))
				for k := uint64(0); k < domain; k++ {
					same("lookup", sk.LookupAt(sview, k), read(bview, table.Plan{Preds: keyIs(k)}).Rows)
					same("count", sk.CountEqualAt(sview, k), read(bview, table.Plan{Preds: keyIs(k), Reduce: table.Count}).Count)
				}
				same("range", sk.RangeAt(sview, 5, 17), read(bview, table.Plan{Preds: []table.Pred{{Col: 0, Range: true, Lo: uint64(5), Hi: uint64(17)}}}).Rows)
				same("sum", sv.SumAt(sview), read(bview, table.Plan{Reduce: table.Sum, Col: 1}).Sum)
				smin, sok := sv.MinAt(sview)
				bs := read(bview, table.Plan{Reduce: table.MinMax, Col: 1})
				bmin, bok := bs.Min, bs.Found
				same("min", []any{smin, sok}, []any{bmin, bok})
				filters := []hyrise.Filter{{Column: "k", Op: hyrise.FilterBetween, Value: uint64(3), Hi: uint64(12)}}
				sres, err := hyrise.QueryAt(st, sview, filters, []string{"v"})
				if err != nil {
					t.Fatal(err)
				}
				plan, err := bare.Schema().Plan(filters, []string{"v"})
				if err != nil {
					t.Fatal(err)
				}
				bres := read(bview, plan)
				same("query", []any{sres.Rows, sres.Values}, []any{bres.Rows, bres.Values})
				same("query columns", sres.Columns, []string{"v"})
			}
			state := func() {
				t.Helper()
				part := st.Partitions()[0]
				ids := part.RowIDs()
				same("row ids", ids, bare.RowIDs())
				sb, se := part.RowEpochs()
				bb, be := bare.RowEpochs()
				same("begin epochs", sb, bb)
				same("end epochs", se, be)
				for _, id := range ids {
					srow, serr := st.Row(id)
					brow, berr := bare.Row(id)
					sameErr("row", serr, berr)
					same("row", srow, brow)
					same("valid", st.IsValid(id), bare.IsValid(id))
				}
				same("counts", []int{st.Rows(), st.MainRows(), st.DeltaRows()},
					[]int{bare.Rows(), bare.MainRows(), bare.DeltaRows()})
			}

			rng := rand.New(rand.NewSource(seed))
			var live []int
			var spin, bpin hyrise.ReadView
			for step := 0; step < 24; step++ {
				for op := 0; op < 60; op++ {
					switch rng.Intn(10) {
					case 0, 1, 2:
						row := []any{rng.Uint64() % domain, rng.Uint64() % 1000}
						sid, serr := st.Insert(row)
						bid, berr := bare.Insert(row)
						sameErr("insert", serr, berr)
						same("insert id", sid, bid)
						live = append(live, sid)
					case 3:
						batch := make([][]any, 1+rng.Intn(4))
						for i := range batch {
							batch[i] = []any{rng.Uint64() % domain, rng.Uint64() % 1000}
						}
						sids, serr := st.InsertRows(batch)
						bids, berr := bare.InsertRows(batch)
						sameErr("insert rows", serr, berr)
						same("insert rows ids", sids, bids)
						live = append(live, sids...)
					case 4, 5, 6:
						if len(live) == 0 {
							continue
						}
						i := rng.Intn(len(live))
						changes := map[string]any{"v": rng.Uint64() % 1000}
						if rng.Intn(2) == 0 {
							changes["k"] = rng.Uint64() % domain
						}
						sid, serr := st.Update(live[i], changes)
						bid, berr := bare.Update(live[i], changes)
						sameErr("update", serr, berr)
						same("update id", sid, bid)
						live[i] = sid
					case 7:
						if len(live) == 0 {
							continue
						}
						i := rng.Intn(len(live))
						sameErr("delete", st.Delete(live[i]), bare.Delete(live[i]))
						// The id is stale now (and retired after the next
						// GC merge): both must refuse it the same way.
						_, serr := st.Update(live[i], map[string]any{"v": uint64(1)})
						_, berr := bare.Update(live[i], map[string]any{"v": uint64(1)})
						sameErr("stale update", serr, berr)
						live = append(live[:i], live[i+1:]...)
					default:
						k := rng.Uint64() % domain
						same("lookup", sk.Lookup(k), read(table.Latest(), table.Plan{Preds: keyIs(k)}).Rows)
					}
				}
				if step == 9 {
					spin, bpin = st.Snapshot(), bare.Snapshot()
				}
				if step%3 == 2 {
					opts := hyrise.MergeOptions{Threads: 1 + rng.Intn(3)}
					srep, serr := st.RequestMerge(context.Background(), opts)
					brep, berr := bare.Merge(context.Background(), opts)
					sameErr("merge", serr, berr)
					same("merge counts", []int{srep.RowsMerged, srep.RowsReclaimed, srep.MainRowsAfter, len(srep.Columns)},
						[]int{brep.RowsMerged, brep.RowsReclaimed, brep.MainRowsAfter, len(brep.Columns)})
				}
				// A capture per step advances both clocks in lockstep.
				sview, bview := st.Snapshot(), bare.Snapshot()
				compare(sview, bview)
				sview.Release()
				bview.Release()
				compare(hyrise.ReadView{}, hyrise.ReadView{})
				if step >= 9 {
					compare(spin, bpin)
				}
				state()
			}
			spin.Release()
			bpin.Release()
		})
	}
}

// TestNewTableReshardsUnderPinnedReaders: the store hyrise.NewTable builds
// is an ordinary store — it reshards 1→3 live while pinned readers keep
// reading, every read exact.
func TestNewTableReshardsUnderPinnedReaders(t *testing.T) {
	st, err := hyrise.NewTable("kv", kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	const rows = 3000
	var wantSum uint64
	for i := 0; i < rows; i++ {
		if _, err := st.Insert([]any{uint64(i), uint64(i % 97)}); err != nil {
			t.Fatal(err)
		}
		wantSum += uint64(i % 97)
	}
	if _, err := st.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	pinned := st.Snapshot()
	defer pinned.Release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, failed atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := uint64(r); ; k = (k + 13) % rows {
				select {
				case <-stop:
					return
				default:
				}
				// Fresh handles each round, as a server does per request:
				// they cover the partitions the reshard has added so far.
				kh, _ := hyrise.ColumnOf[uint64](st, "k")
				vh, _ := hyrise.NumericColumnOf[uint64](st, "v")
				ids := kh.LookupAt(pinned, k)
				ok := len(ids) == 1
				if ok {
					visible, verr := st.VisibleAt(pinned, ids[0])
					row, err := st.Row(ids[0])
					ok = verr == nil && visible && err == nil && row[0].(uint64) == k
				}
				if !ok {
					failed.Add(1)
				}
				if vh.SumAt(pinned) != wantSum || st.ValidRowsAt(pinned) != rows {
					failed.Add(1)
				}
				reads.Add(2)
			}
		}(r)
	}
	// A 3000-row reshard can finish before a busy scheduler starts any
	// reader: let one read land first so the reshard runs beside them.
	for reads.Load() == 0 {
		runtime.Gosched()
	}
	rep, err := st.Reshard(context.Background(), 3)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != 1 || rep.To != 3 || rep.RowsMigrated != rows || st.NumShards() != 3 || len(st.Partitions()) != 4 {
		t.Fatalf("reshard report %+v, shards=%d parts=%d", rep, st.NumShards(), len(st.Partitions()))
	}
	if reads.Load() == 0 || failed.Load() != 0 {
		t.Fatalf("%d of %d pinned reads failed during the reshard", failed.Load(), reads.Load())
	}
	kh, _ := hyrise.ColumnOf[uint64](st, "k")
	for k := uint64(0); k < rows; k += 101 {
		if ids := kh.Lookup(k); len(ids) != 1 {
			t.Fatalf("post-reshard Lookup(%d) = %v", k, ids)
		}
	}
}
