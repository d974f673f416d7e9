package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrise/internal/persist"
	"hyrise/internal/sched"
	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on, so a Reshard's migration pass (one Err per row) stops after
// about n rows: a deterministic partial drain.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRoutedKeyReads' store holds static rows under keys [0, static) with
// v = key, and moving rows j whose key a writer flips between homes(j)[0]
// and homes(j)[1], with v = movingV + j.
const (
	static  = 600
	moving  = 150
	movingV = 1 << 20
)

func homes(j int) [2]uint64 { return [2]uint64{static + 2*uint64(j), static + 2*uint64(j) + 1} }

// record is the key writer's record: moving row j's key is homes(j)[r%2]
// once done[j] = r, and started[j] = r while the move to round r runs.
type record struct {
	started, done [moving]atomic.Int64
}

// keyReader reads one key three ways at a view: Lookup and CountEqual
// through a typed handle and a key-filtered query (Schema.Plan), each a
// shard.Read plan.
type keyReader struct {
	st *shard.Table
	k  *shard.Handle[uint64]
}

// read returns how many rows each of the three reads finds under key, and
// an error when a row found does not hold key and v = want.
func (r keyReader) read(view table.View, key, want uint64) ([3]int, error) {
	ids := r.k.LookupAt(view, key)
	for _, id := range ids {
		row, err := r.st.Row(id)
		if err != nil {
			return [3]int{}, err
		}
		if row[0] != key || row[1] != want {
			return [3]int{}, fmt.Errorf("Lookup(%d) row %d holds %v, want v = %d", key, id, row, want)
		}
	}
	p, err := r.st.Schema().Plan([]table.Filter{{Column: "k", Op: table.Eq, Value: key}}, []string{"v"})
	if err != nil {
		return [3]int{}, err
	}
	res, err := shard.Read(r.st, view, p)
	if err != nil {
		return [3]int{}, err
	}
	for _, vs := range res.Values {
		if vs[0] != want {
			return [3]int{}, fmt.Errorf("query k = %d: v = %v, want %d", key, vs[0], want)
		}
	}
	return [3]int{len(ids), r.k.CountEqualAt(view, key), len(res.Rows)}, nil
}

// checkStatic reads every static key at the view: each holds its row.
func (r keyReader) checkStatic(view table.View) error {
	for k := uint64(0); k < static; k++ {
		n, err := r.read(view, k, k)
		if err != nil {
			return err
		}
		if n != [3]int{1, 1, 1} {
			return fmt.Errorf("static key %d: Lookup, CountEqual, query found %v rows, want 1 each", k, n)
		}
	}
	return nil
}

// checkMoving reads both keys of every moving row at the view.  d and s
// are the writer's done and started rounds read before and after the
// reads' epochs were fixed; where they agree no move of the row committed
// in between, so its key at those epochs is homes(j)[d%2] exactly.
// Elsewhere each read finds the row at most once.
func (r keyReader) checkMoving(view table.View, d, s func(j int) int64) error {
	for j := range moving {
		before := d(j)
		var found [2][3]int
		for h, key := range homes(j) {
			n, err := r.read(view, key, movingV+uint64(j))
			if err != nil {
				return err
			}
			found[h] = n
		}
		if before == s(j) {
			at := before % 2
			if found[at] != [3]int{1, 1, 1} || found[1-at] != [3]int{} {
				return fmt.Errorf("moving row %d at round %d: %v rows under key %d, %v under key %d, want 1 each and none",
					j, before, found[at], homes(j)[at], found[1-at], homes(j)[1-at])
			}
			continue
		}
		for h, n := range found {
			for _, c := range n {
				if c > 1 {
					return fmt.Errorf("moving row %d: %v rows under key %d", j, n, homes(j)[h])
				}
			}
		}
	}
	return nil
}

// oneShard returns an empty one-shard store of (k, v uint64) keyed by k.
func oneShard(t *testing.T) *shard.Table {
	t.Helper()
	st, err := shard.New("t", table.Schema{{Name: "k", Type: table.Uint64}, {Name: "v", Type: table.Uint64}}, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// pinned captures a snapshot between two copies of the writer's record.
func pinned(st *shard.Table, rec *record) (view table.View, d, s [moving]int64) {
	for j := range moving {
		d[j] = rec.done[j].Load()
	}
	view = st.Snapshot()
	for j := range moving {
		s[j] = rec.started[j].Load()
	}
	return view, d, s
}

// TestRoutedKeyReads: a key equality reads one partition per listed shard
// window, so it must find every version of its key wherever a reshard
// left it.  While Reshard(1→2) migrates, then a Reshard(2→3) is cancelled
// halfway (leaving rows in the sealed 2-partition window), and a writer
// moves rows between keys with key-changing updates, latest and pinned
// Lookup, CountEqual and key-filtered query of every key agree with
// the writer's record at the read's epoch.  So does a view pinned before
// the first reshard, read after it; once that view is released, merges
// drain sealed partition 0 and prune its window under the readers.  After
// a Save/Load round trip of the half-drained topology every key reads the
// same again.  Routing by the active window alone misses the sealed
// window's rows.
func TestRoutedKeyReads(t *testing.T) {
	st := oneShard(t)
	rows := make([][]any, 0, static+moving)
	for k := range uint64(static) {
		rows = append(rows, []any{k, k})
	}
	for j := range moving {
		rows = append(rows, []any{homes(j)[0], movingV + uint64(j)})
	}
	ids, err := st.InsertRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	k, err := shard.ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	r := keyReader{st, k}
	var rec record
	initial := st.Snapshot() // before the writer and every reshard

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	wg.Add(1)
	go func() { // the key writer
		defer wg.Done()
		gids := ids[static:]
		for round := int64(1); !stop.Load(); round++ {
			for j := 0; j < moving && !stop.Load(); j++ {
				rec.started[j].Store(round)
				for {
					id, err := st.Update(gids[j], map[string]any{"k": homes(j)[round%2]})
					if err == nil {
						gids[j] = id
						break
					}
					if !errors.Is(err, table.ErrRowInvalid) {
						fail("move row %d: %v", j, err)
						return
					}
					// A reshard migrated the row: find it by its key.
					found := k.Lookup(homes(j)[(round-1)%2])
					if len(found) != 1 {
						fail("relocate row %d: %d rows under key %d", j, len(found), homes(j)[(round-1)%2])
						return
					}
					gids[j] = found[0]
				}
				rec.done[j].Store(round)
			}
		}
	}()
	for range 2 { // readers: latest and pinned
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				latest := func(j int) int64 { return rec.done[j].Load() }
				after := func(j int) int64 { return rec.started[j].Load() }
				if err := r.checkStatic(table.Latest()); err != nil {
					fail("latest: %v", err)
				}
				if err := r.checkMoving(table.Latest(), latest, after); err != nil {
					fail("latest: %v", err)
				}
				view, d, s := pinned(st, &rec)
				if err := r.checkStatic(view); err != nil {
					fail("pinned: %v", err)
				}
				err := r.checkMoving(view, func(j int) int64 { return d[j] }, func(j int) int64 { return s[j] })
				view.Release()
				if err != nil {
					fail("pinned: %v", err)
				}
			}
		}()
	}

	zero := func(int) int64 { return 0 }
	time.Sleep(20 * time.Millisecond)
	if _, err := st.Reshard(context.Background(), 2); err != nil {
		t.Error(err)
	}
	if err := r.checkStatic(initial); err != nil {
		t.Errorf("view pinned before Reshard(2): %v", err)
	}
	if err := r.checkMoving(initial, zero, zero); err != nil {
		t.Errorf("view pinned before Reshard(2): %v", err)
	}
	// Unpinned, the migrated versions in sealed partition 0 are garbage:
	// merge until it is empty, so its window is pruned under the readers.
	initial.Release()
	for try := 0; st.Shard(0) != nil && !stop.Load(); try++ {
		if try == 200 {
			t.Errorf("sealed partition 0 still holds %d versions after %d merges", st.Shard(0).Rows(), try)
			break
		}
		if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	// The pass visits sealed partitions 1 and 2 in that order: stop it
	// once partition 1 is drained, leaving partition 2's rows behind.
	half := &cancelAfter{Context: context.Background()}
	half.n.Store(int64(st.Shard(1).Rows()))
	if _, err := st.Reshard(half, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Reshard(3): %v, want context.Canceled", err)
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	if base, n := st.ActiveWindow(); base != 3 || n != 3 {
		t.Fatalf("active window [%d, %d), want [3, 6)", base, base+n)
	}
	if sealed := st.Shard(1).ValidRows() + st.Shard(2).ValidRows(); sealed == 0 {
		t.Fatal("the cancelled reshard left no row in the sealed window")
	}
	// Listed: the sealed window [1, 3), with rows left, and [3, 6).
	if c := readCost(st, func() { k.Lookup(0) }); c != 2 {
		t.Errorf("a key read reads %d partitions, want 2", c)
	}
	final := func(j int) int64 { return rec.done[j].Load() }
	if err := r.checkStatic(table.Latest()); err != nil {
		t.Fatal(err)
	}
	if err := r.checkMoving(table.Latest(), final, final); err != nil {
		t.Fatal(err)
	}

	var img bytes.Buffer
	if err := persist.Save(st, &img); err != nil {
		t.Fatal(err)
	}
	loaded, err := persist.Load(&img)
	if err != nil {
		t.Fatal(err)
	}
	lk, err := shard.ColumnOf[uint64](loaded, "k")
	if err != nil {
		t.Fatal(err)
	}
	lr := keyReader{loaded, lk}
	if err := lr.checkStatic(table.Latest()); err != nil {
		t.Fatalf("loaded: %v", err)
	}
	if err := lr.checkMoving(table.Latest(), final, final); err != nil {
		t.Fatalf("loaded: %v", err)
	}
}

// readCost returns how many partitions fn makes the store's fan-out read.
func readCost(st *shard.Table, fn func()) uint64 {
	before := st.PartitionsRead()
	fn()
	return st.PartitionsRead() - before
}

// TestDrainedWindowLeavesReadSet: a sealed window leaves the store once
// garbage collection has drained its partitions, so a key read is back to
// one partition and a whole-store read to the active window, every
// surviving global id keeps its partition, and the drained window's
// physical indices are not reused.
func TestDrainedWindowLeavesReadSet(t *testing.T) {
	st := oneShard(t)
	const n = 1000
	for i := range uint64(n) {
		if _, err := st.Insert([]any{i, uint64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	k, err := shard.ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	v, err := shard.NumericColumnOf[uint64](st, "v")
	if err != nil {
		t.Fatal(err)
	}
	merge := func() {
		t.Helper()
		if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(at string, parts int, keyCost, sumCost uint64) {
		t.Helper()
		if got := len(st.Partitions()); got != parts {
			t.Errorf("%s: %d partitions, want %d", at, got, parts)
		}
		var ids []int
		if c := readCost(st, func() { ids = k.Lookup(500) }); c != keyCost || len(ids) != 1 {
			t.Errorf("%s: key Lookup read %d partitions for %d rows, want %d for 1", at, c, len(ids), keyCost)
		}
		var cnt int
		if c := readCost(st, func() { cnt = k.CountEqual(500) }); c != keyCost || cnt != 1 {
			t.Errorf("%s: key CountEqual read %d partitions, counted %d, want %d and 1", at, c, cnt, keyCost)
		}
		var sum uint64
		if c := readCost(st, func() { sum = v.Sum() }); c != sumCost || sum != n {
			t.Errorf("%s: Sum read %d partitions, = %d, want %d and %d", at, c, sum, sumCost, n)
		}
	}

	check("one shard", 1, 1, 1)
	if _, err := st.Reshard(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	check("after Reshard(4)", 5, 2, 5) // partition 0 holds the migrated versions
	merge()
	merge()
	if p := st.Shard(0); p != nil {
		t.Fatalf("after two merges sealed partition 0 holds %d row versions", p.Rows())
	}
	check("drained", 4, 1, 4)
	if _, err := st.Reshard(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	check("after Reshard(2)", 6, 2, 6)
	merge()
	check("drained again", 2, 1, 2)
	if base, n := st.ActiveWindow(); base != 5 || n != 2 {
		t.Fatalf("active window [%d, %d), want [5, 7): no index reused", base, base+n)
	}
}

// TestDrainedWindowKeepsItsFloor: a reshard moves every row at one stamp.
// Once the snapshot taken before it is released and merges have drained
// the old window out of the store, the window's GC watermark stays with
// the partitions that remain: a read at the released epoch fails with
// ErrReclaimed instead of answering none of the moved rows.
func TestDrainedWindowKeepsItsFloor(t *testing.T) {
	st := oneShard(t)
	const n = 100
	for i := range uint64(n) {
		if _, err := st.Insert([]any{i, uint64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	sum := table.Plan{Reduce: table.Sum, Col: 1}
	view := st.Snapshot()
	if _, err := st.Reshard(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if s, err := shard.Read(st, view, sum); err != nil || s.Sum != n {
		t.Fatalf("pinned read across the reshard: %v, want sum %d", err, n)
	}
	view.Release()
	for i := 0; len(st.Partitions()) != st.NumShards(); i++ {
		if i == 4 {
			t.Fatalf("%d merges left %d partitions for %d shards", i, len(st.Partitions()), st.NumShards())
		}
		if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []table.View{view, table.ViewAt(view.Epoch())} {
		if s, err := shard.Read(st, v, sum); !errors.Is(err, table.ErrReclaimed) {
			t.Fatalf("read at epoch %d after its window drained: %+v, %v, want ErrReclaimed", v.Epoch(), s, err)
		}
	}
	if s, err := shard.Read(st, table.Latest(), sum); err != nil || s.Sum != n {
		t.Fatalf("latest read: %v, want sum %d", err, n)
	}
}

// TestReshardsLeaveNoDrainedPartitions: a 1 000-row, 1-shard store is
// resharded to 4, 2, 3, 1 and 2 shards.  After each reshard's drained
// window has been merged empty, the store holds exactly its active
// partitions, and every surviving row's global id still reads its values.
// The merges come from RequestMerge, or from a running scheduler alone.
func TestReshardsLeaveNoDrainedPartitions(t *testing.T) {
	for _, mode := range []string{"RequestMerge", "scheduler"} {
		t.Run(mode, func(t *testing.T) {
			st := oneShard(t)
			const n = 1000
			for i := range uint64(n) {
				if _, err := st.Insert([]any{i, i * 3}); err != nil {
					t.Fatal(err)
				}
			}
			k, err := shard.ColumnOf[uint64](st, "k")
			if err != nil {
				t.Fatal(err)
			}
			if mode == "scheduler" {
				s := sched.New(st.Partitions, sched.Config{Interval: time.Millisecond})
				if err := s.Start(); err != nil {
					t.Fatal(err)
				}
				defer s.Stop()
			}
			for _, shards := range []int{4, 2, 3, 1, 2} {
				if _, err := st.Reshard(context.Background(), shards); err != nil {
					t.Fatal(err)
				}
				gids := make([]int, n)
				for i := range gids {
					ids := k.Lookup(uint64(i))
					if len(ids) != 1 {
						t.Fatalf("after Reshard(%d): Lookup(%d) = %v", shards, i, ids)
					}
					gids[i] = ids[0]
				}
				if mode == "RequestMerge" {
					for range 2 {
						if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					for deadline := time.Now().Add(time.Minute); len(st.Partitions()) != st.NumShards(); {
						if time.Now().After(deadline) {
							break
						}
						time.Sleep(time.Millisecond)
					}
				}
				if got := len(st.Partitions()); got != st.NumShards() || got != shards {
					t.Fatalf("after Reshard(%d) and merges: %d partitions, %d shards", shards, got, st.NumShards())
				}
				for i, gid := range gids {
					if row, err := st.Row(gid); err != nil || row[0] != uint64(i) || row[1] != uint64(i)*3 {
						t.Fatalf("after Reshard(%d): Row(%d) = %v, %v; want key %d", shards, gid, row, err, i)
					}
				}
			}
		})
	}
}
