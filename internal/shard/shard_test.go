package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hyrise/internal/table"
)

func kvSchema() table.Schema {
	return table.Schema{
		{Name: "k", Type: table.Uint64},
		{Name: "v", Type: table.Uint64},
	}
}

func newKV(t testing.TB, shards int) *Table {
	t.Helper()
	st, err := New("t", kvSchema(), "k", shards)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewValidation(t *testing.T) {
	if _, err := New("t", kvSchema(), "k", 0); !errors.Is(err, ErrNoShards) {
		t.Fatalf("shards=0: %v", err)
	}
	if _, err := New("t", kvSchema(), "nope", 4); !errors.Is(err, ErrKeyColumn) {
		t.Fatalf("bad key: %v", err)
	}
	if _, err := New("t", table.Schema{}, "k", 4); err == nil {
		t.Fatal("empty schema accepted")
	}
	st := newKV(t, 4)
	if st.NumShards() != 4 || st.KeyColumn() != "k" || st.Name() != "t" {
		t.Fatalf("metadata: shards=%d key=%q name=%q", st.NumShards(), st.KeyColumn(), st.Name())
	}
}

func TestGIDRoundTrip(t *testing.T) {
	st := newKV(t, 4)
	for shard := 0; shard < 4; shard++ {
		for local := 0; local < 100; local++ {
			gid := toGlobal(shard, local)
			p, l, err := locate(st.load(), gid)
			if err != nil || p != st.Shard(shard) || l != local {
				t.Fatalf("Locate(gid(%d,%d)) = (%s,%d,%v)", shard, local, p.Name(), l, err)
			}
		}
	}
	if _, _, err := locate(st.load(), -1); err == nil {
		t.Fatal("negative gid accepted")
	}
}

func TestInsertRoutesAllShards(t *testing.T) {
	st := newKV(t, 8)
	for i := 0; i < 2000; i++ {
		if _, err := st.Insert([]any{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st.Rows() != 2000 || st.ValidRows() != 2000 {
		t.Fatalf("rows=%d valid=%d", st.Rows(), st.ValidRows())
	}
	// splitmix64 should spread sequential keys across every shard, with no
	// shard grossly overloaded.
	for i, s := range st.Partitions() {
		if n := s.Rows(); n < 100 || n > 500 {
			t.Errorf("shard %d has %d of 2000 rows (bad distribution)", i, n)
		}
	}
}

func TestKeyHashAgreesAcrossSpellings(t *testing.T) {
	st := newKV(t, 8)
	// int, uint32-width and uint64 spellings of the same key must route to
	// the same shard, or lookups would miss rows inserted via literals.
	for _, k := range []uint64{0, 1, 42, 1 << 31} {
		s1, err1 := st.shardFor(int(k))
		s2, err2 := st.shardFor(k)
		if err1 != nil || err2 != nil || s1 != s2 {
			t.Fatalf("key %d: int->%d(%v) uint64->%d(%v)", k, s1, err1, s2, err2)
		}
	}
	if _, err := st.shardFor("not-an-int"); err == nil {
		t.Fatal("string key accepted for uint64 column")
	}
}

func TestLookupRangeScanAcrossShards(t *testing.T) {
	st := newKV(t, 4)
	gids := map[uint64]int{}
	for i := 0; i < 500; i++ {
		gid, err := st.Insert([]any{uint64(i), uint64(i * 10)})
		if err != nil {
			t.Fatal(err)
		}
		gids[uint64(i)] = gid
	}
	h, err := ColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{0, 123, 499} {
		rows := h.Lookup(k)
		if len(rows) != 1 || rows[0] != gids[k] {
			t.Fatalf("Lookup(%d) = %v want [%d]", k, rows, gids[k])
		}
	}
	if rows := h.Lookup(1000); len(rows) != 0 {
		t.Fatalf("Lookup(absent) = %v", rows)
	}
	if rows := h.Range(100, 199); len(rows) != 100 {
		t.Fatalf("Range(100,199) found %d rows", len(rows))
	}
	// Range results are ascending global row ids.
	rows := h.Range(0, 499)
	if len(rows) != 500 {
		t.Fatalf("full range: %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1] >= rows[i] {
			t.Fatalf("rows not ascending at %d: %v %v", i, rows[i-1], rows[i])
		}
	}
	seen := 0
	h.Scan(func(gid int, v uint64) bool {
		seen++
		return true
	})
	if seen != 500 {
		t.Fatalf("Scan visited %d rows", seen)
	}
	// Early stop.
	seen = 0
	h.Scan(func(int, uint64) bool { seen++; return seen < 10 })
	if seen != 10 {
		t.Fatalf("Scan early-stop visited %d", seen)
	}
}

func TestUpdateDeleteSameShard(t *testing.T) {
	st := newKV(t, 4)
	gid, err := st.Insert([]any{uint64(7), uint64(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Non-key update stays in place (same shard).
	ngid, err := st.Update(gid, map[string]any{"v": uint64(2)})
	if err != nil {
		t.Fatal(err)
	}
	if s0, s1 := gid>>localBits, ngid>>localBits; s0 != s1 {
		t.Fatalf("non-key update moved shard %d -> %d", s0, s1)
	}
	if st.IsValid(gid) || !st.IsValid(ngid) {
		t.Fatal("old version still valid or new invalid")
	}
	row, err := st.Row(ngid)
	if err != nil || row[1].(uint64) != 2 {
		t.Fatalf("Row(%d) = %v, %v", ngid, row, err)
	}
	// Double update of a stale id fails like the flat table.
	if _, err := st.Update(gid, map[string]any{"v": uint64(3)}); !errors.Is(err, table.ErrRowInvalid) {
		t.Fatalf("stale update: %v", err)
	}
	if err := st.Delete(ngid); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(ngid); !errors.Is(err, table.ErrRowInvalid) {
		t.Fatalf("double delete: %v", err)
	}
	if st.ValidRows() != 0 {
		t.Fatalf("ValidRows = %d", st.ValidRows())
	}
}

func TestUpdateCrossShardMove(t *testing.T) {
	st := newKV(t, 4)
	// Find two keys that hash to different shards.
	k1 := uint64(1)
	s1, _ := st.shardFor(k1)
	var k2 uint64
	for k := uint64(2); ; k++ {
		if s, _ := st.shardFor(k); s != s1 {
			k2 = k
			break
		}
	}
	gid, err := st.Insert([]any{k1, uint64(99)})
	if err != nil {
		t.Fatal(err)
	}
	ngid, err := st.Update(gid, map[string]any{"k": k2})
	if err != nil {
		t.Fatal(err)
	}
	if oldShard, newShard := gid>>localBits, ngid>>localBits; oldShard == newShard {
		t.Fatalf("expected a cross-shard move, both in shard %d", oldShard)
	}
	if st.IsValid(gid) || !st.IsValid(ngid) {
		t.Fatal("validity after move")
	}
	// Non-key values travel with the row.
	row, err := st.Row(ngid)
	if err != nil || row[0].(uint64) != k2 || row[1].(uint64) != 99 {
		t.Fatalf("moved row = %v, %v", row, err)
	}
	// The old version's history remains materializable in the old shard.
	old, err := st.Row(gid)
	if err != nil || old[0].(uint64) != k1 {
		t.Fatalf("old row = %v, %v", old, err)
	}
	h, _ := ColumnOf[uint64](st, "k")
	if rows := h.Lookup(k1); len(rows) != 0 {
		t.Fatalf("old key still visible: %v", rows)
	}
	if rows := h.Lookup(k2); len(rows) != 1 || rows[0] != ngid {
		t.Fatalf("new key lookup: %v", rows)
	}
	// A bad value in a cross-shard update must not invalidate the row.
	if _, err := st.Update(ngid, map[string]any{"k": k1, "v": "oops"}); err == nil {
		t.Fatal("bad value accepted")
	}
	if !st.IsValid(ngid) {
		t.Fatal("failed cross-shard update stranded the row")
	}
}

// TestRequestMergeFanOut: on several partitions RequestMerge merges them
// all concurrently, each with the whole per-merge thread budget, and
// condenses the reports; per-partition detail stays on the partitions.
func TestRequestMergeFanOut(t *testing.T) {
	st := newKV(t, 4)
	for i := 0; i < 1000; i++ {
		if _, err := st.Insert([]any{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st.DeltaRows() != 1000 || st.MainRows() != 0 {
		t.Fatalf("pre-merge delta=%d main=%d", st.DeltaRows(), st.MainRows())
	}
	rep, err := st.RequestMerge(context.Background(), table.MergeOptions{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsMerged != 1000 || rep.MainRowsAfter != 1000 || rep.Aborted {
		t.Fatalf("report %+v", rep)
	}
	if rep.Columns != nil {
		t.Fatalf("condensed report carries %d column stats", len(rep.Columns))
	}
	if rep.Threads != 4 {
		t.Fatalf("Threads = %d want 4 (the per-merge budget)", rep.Threads)
	}
	sum := 0
	for i, p := range st.Partitions() {
		pr := p.LastMergeReport()
		if pr.Threads != 4 {
			t.Fatalf("partition %d merged with %d threads want 4 (the per-merge budget)", i, pr.Threads)
		}
		if len(pr.Columns) != 2 {
			t.Fatalf("partition %d report has %d column stats", i, len(pr.Columns))
		}
		sum += pr.RowsMerged
	}
	if sum != 1000 {
		t.Fatalf("per-partition reports sum to %d rows", sum)
	}
	if st.DeltaRows() != 0 || st.MainRows() != 1000 {
		t.Fatalf("post-merge delta=%d main=%d", st.DeltaRows(), st.MainRows())
	}
	// Everything still visible post-merge.
	h, _ := ColumnOf[uint64](st, "k")
	for _, k := range []uint64{0, 500, 999} {
		if len(h.Lookup(k)) != 1 {
			t.Fatalf("post-merge Lookup(%d) missed", k)
		}
	}
}

func TestRequestMergeCancelled(t *testing.T) {
	st := newKV(t, 4)
	for i := 0; i < 100; i++ {
		st.Insert([]any{uint64(i), uint64(i)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := st.RequestMerge(ctx, table.MergeOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RequestMerge: err = %v", err)
	}
	if !rep.Aborted || rep.RowsMerged != 0 {
		t.Fatalf("no partition committed, report %+v", rep)
	}
	// Aborted merges must not lose rows.
	if st.ValidRows() != 100 || st.DeltaRows() != 100 {
		t.Fatalf("after abort: valid=%d delta=%d", st.ValidRows(), st.DeltaRows())
	}
}

// TestRequestMergePartialFailure: partitions merge atomically one by one,
// so when one fails the others stay committed with their rows counted,
// the failing partition's rows stay in its delta uncounted, the error
// joins the per-partition errors and Aborted stays false.
func TestRequestMergePartialFailure(t *testing.T) {
	st := newKV(t, 3)
	// Hold partition 0's merge open: its observer runs while the merge
	// mutex is still held, so a second merge of it is refused.
	p0 := st.Shard(0)
	held, release := make(chan struct{}), make(chan struct{})
	p0.OnMerge(func(table.Report) { close(held); <-release })
	done := make(chan error, 1)
	go func() {
		_, err := p0.Merge(context.Background(), table.MergeOptions{})
		done <- err
	}()
	<-held
	for i := 0; i < 300; i++ {
		st.Insert([]any{uint64(i), uint64(i)})
	}
	busy := p0.DeltaRows()
	if busy == 0 || busy == 300 {
		t.Fatalf("keys did not spread: %d of 300 rows in partition 0", busy)
	}
	rep, err := st.RequestMerge(context.Background(), table.MergeOptions{})
	close(release)
	if e := <-done; e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, table.ErrMergeInProgress) {
		t.Fatalf("err = %v, want the busy partition's ErrMergeInProgress", err)
	}
	if rep.Aborted {
		t.Fatal("Aborted although two partitions committed")
	}
	if rep.RowsMerged != 300-busy || rep.MainRowsAfter != 300-busy {
		t.Fatalf("RowsMerged = %d MainRowsAfter = %d, want %d (the committed partitions only)",
			rep.RowsMerged, rep.MainRowsAfter, 300-busy)
	}
	if st.DeltaRows() != busy || p0.DeltaRows() != busy {
		t.Fatalf("the refused partition's %d rows must stay in its delta (store delta %d)", busy, st.DeltaRows())
	}
}

// TestRequestMergeBusyAndEmpty pins Aborted on the mixed case: one
// partition refuses (busy) and the others have nothing to merge.  An empty
// merge still runs and commits, so "no partition committed" is false and
// Aborted with it — only the error says one partition was skipped.
func TestRequestMergeBusyAndEmpty(t *testing.T) {
	st := newKV(t, 3)
	p0 := st.Shard(0)
	held, release := make(chan struct{}), make(chan struct{})
	p0.OnMerge(func(table.Report) { close(held); <-release })
	done := make(chan error, 1)
	go func() {
		_, err := p0.Merge(context.Background(), table.MergeOptions{})
		done <- err
	}()
	<-held
	rep, err := st.RequestMerge(context.Background(), table.MergeOptions{})
	close(release)
	if e := <-done; e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, table.ErrMergeInProgress) {
		t.Fatalf("err = %v, want the busy partition's ErrMergeInProgress", err)
	}
	if rep.Aborted || rep.RowsMerged != 0 {
		t.Fatalf("Aborted = %v RowsMerged = %d, want false and 0: two partitions committed empty merges",
			rep.Aborted, rep.RowsMerged)
	}
	for i := 1; i < 3; i++ {
		if last := st.Shard(i).LastMergeReport(); len(last.Columns) == 0 {
			t.Fatalf("partition %d recorded no committed merge", i)
		}
	}
}

func TestNumericAggregates(t *testing.T) {
	st := newKV(t, 4)
	var want uint64
	for i := 1; i <= 100; i++ {
		st.Insert([]any{uint64(i), uint64(i)})
		want += uint64(i)
	}
	nh, err := NumericColumnOf[uint64](st, "v")
	if err != nil {
		t.Fatal(err)
	}
	if got := nh.Sum(); got != want {
		t.Fatalf("Sum = %d want %d", got, want)
	}
	if mn, ok := nh.Min(); !ok || mn != 1 {
		t.Fatalf("Min = %d, %v", mn, ok)
	}
	if mx, ok := nh.Max(); !ok || mx != 100 {
		t.Fatalf("Max = %d, %v", mx, ok)
	}
	h, _ := ColumnOf[uint64](st, "k")
	if got := h.Distinct(); got != 100 {
		t.Fatalf("Distinct = %d", got)
	}
	empty := newKV(t, 3)
	en, _ := NumericColumnOf[uint64](empty, "v")
	if _, ok := en.Min(); ok {
		t.Fatal("Min on empty table reported ok")
	}
}

func TestQueryAcrossShards(t *testing.T) {
	st, err := New("q", table.Schema{
		{Name: "k", Type: table.Uint64},
		{Name: "qty", Type: table.Uint32},
		{Name: "product", Type: table.String},
	}, "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p := "widget"
		if i%2 == 1 {
			p = "gadget"
		}
		if _, err := st.Insert([]any{uint64(i), uint32(i % 10), p}); err != nil {
			t.Fatal(err)
		}
	}
	query := func(filters []table.Filter, project []string) (*table.Selection, error) {
		p, err := st.Schema().Plan(filters, project)
		if err != nil {
			return nil, err
		}
		return Read(st, table.Latest(), p)
	}
	res, err := query([]table.Filter{
		{Column: "product", Op: table.Eq, Value: "widget"},
		{Column: "qty", Op: table.Between, Value: 2, Hi: 4},
	}, []string{"k", "qty"})
	if err != nil {
		t.Fatal(err)
	}
	// widgets have even i; qty = i%10 in {2,4} -> i%10 in {2,4}: 40 rows.
	if len(res.Rows) != 40 {
		t.Fatalf("Count = %d want 40", len(res.Rows))
	}
	// Each of the four partitions ran one seed phase.
	if res.Seeds != 4 {
		t.Fatalf("Seeds = %d want 4", res.Seeds)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1] >= res.Rows[i] {
			t.Fatal("result rows not ascending")
		}
	}
	for i, gid := range res.Rows {
		if !st.IsValid(gid) {
			t.Fatalf("invalid row %d in result", gid)
		}
		qty := res.Values[i][1].(uint32)
		if qty < 2 || qty > 4 {
			t.Fatalf("row %d qty %d out of range", gid, qty)
		}
		k := res.Values[i][0].(uint64)
		if k%2 != 0 {
			t.Fatalf("row %d key %d is not a widget", gid, k)
		}
	}
	// Errors propagate.
	if _, err := query([]table.Filter{{Column: "nope", Op: table.Eq, Value: 1}}, nil); err == nil {
		t.Fatal("bad column accepted")
	}
	if _, err := query(nil, nil); err == nil {
		t.Fatal("empty filter list accepted")
	}
}

func TestStatsAggregation(t *testing.T) {
	st := newKV(t, 4)
	for i := 0; i < 300; i++ {
		st.Insert([]any{uint64(i), uint64(i)})
	}
	st.RequestMerge(context.Background(), table.MergeOptions{})
	st.Insert([]any{uint64(1000), uint64(1)})
	s := st.StoreStats()
	if s.Shards != 4 || len(s.Partitions) != 4 {
		t.Fatalf("shard counts: %d/%d", s.Shards, len(s.Partitions))
	}
	if s.Rows != 301 || s.ValidRows != 301 || s.MainRows != 300 || s.DeltaRows != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.SizeBytes <= 0 {
		t.Fatal("SizeBytes not aggregated")
	}
	nonZero := 0
	for _, p := range st.Partitions() {
		if p.DeltaFraction() > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("exactly one shard should have delta rows, %d have", nonZero)
	}
}

func TestStringKeySharding(t *testing.T) {
	st, err := New("s", table.Schema{
		{Name: "name", Type: table.String},
		{Name: "v", Type: table.Uint64},
	}, "name", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := st.Insert([]any{fmt.Sprintf("key-%d", i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := ColumnOf[string](st, "name")
	for _, k := range []string{"key-0", "key-123", "key-199"} {
		if rows := h.Lookup(k); len(rows) != 1 {
			t.Fatalf("Lookup(%q) = %v", k, rows)
		}
	}
}

func TestShardCreateIndexAndStats(t *testing.T) {
	st := newKV(t, 4)
	for i := 0; i < 2000; i++ {
		if _, err := st.Insert([]any{uint64(i), uint64(i % 13)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateIndex("nope"); err == nil {
		t.Fatal("CreateIndex(nope) did not error")
	}
	if err := st.CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	stats := st.IndexStats()
	if len(stats) != 1 || stats[0].Column != "v" {
		t.Fatalf("IndexStats = %+v", stats)
	}
	if stats[0].Postings != 2000 || stats[0].Builds != uint64(st.NumShards()) {
		t.Fatalf("aggregate = %+v", stats[0])
	}
	// Indexed cross-shard reads agree with an unindexed scan column.
	hv, err := NumericColumnOf[uint64](st, "v")
	if err != nil {
		t.Fatal(err)
	}
	got := hv.Lookup(5)
	want := 0
	hv.Scan(func(_ int, x uint64) bool {
		if x == 5 {
			want++
		}
		return true
	})
	if len(got) != want {
		t.Fatalf("indexed sharded Lookup: %d rows, scan %d", len(got), want)
	}
}

// shardFor routes a key value against the current map's write window.
func (st *Table) shardFor(key any) (int, error) { return st.routeFor(st.load(), key) }

// ActiveWindow returns the physical index of the first active partition
// and the active partition count.
func (st *Table) ActiveWindow() (base, n int) {
	w := st.load().active()
	return w.base, len(w.parts)
}
