package persist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// buildTable returns a one-shard store of rows rows, all in the delta.
func buildTable(t *testing.T, rows int) *shard.Table {
	t.Helper()
	tb := buildSharded(t, 1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < rows; i++ {
		_, err := tb.Insert([]any{uint64(i), uint32(rng.Intn(50)), "sku-" + string(rune('a'+i%26))})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// equalStores requires the same topology and partitions with the same
// contents, compared by equal (equalTables or equalPartitions).
func equalStores(t *testing.T, a, b *shard.Table, equal func(*testing.T, *table.Table, *table.Table)) {
	t.Helper()
	pa, ta := a.PersistTopology()
	pb, tb := b.PersistTopology()
	if !reflect.DeepEqual(ta, tb) || len(pa) != len(pb) {
		t.Fatalf("topology %+v (%d partitions) vs %+v (%d)", ta, len(pa), tb, len(pb))
	}
	for i := range pa {
		equal(t, pa[i], pb[i])
	}
}

func equalTables(t *testing.T, a, b *table.Table) {
	t.Helper()
	if a.Rows() != b.Rows() || a.ValidRows() != b.ValidRows() {
		t.Fatalf("rows %d/%d vs %d/%d", a.Rows(), a.ValidRows(), b.Rows(), b.ValidRows())
	}
	if a.Name() != b.Name() {
		t.Fatalf("names %q %q", a.Name(), b.Name())
	}
	// Stable ids are not dense once GC has retired some; both sides must
	// agree on the id list exactly.
	idsA, idsB := a.RowIDs(), b.RowIDs()
	for i := range idsA {
		if idsA[i] != idsB[i] {
			t.Fatalf("row id %d: %d vs %d", i, idsA[i], idsB[i])
		}
	}
	if a.NextRowID() != b.NextRowID() || a.RetiredRows() != b.RetiredRows() {
		t.Fatalf("id state %d/%d vs %d/%d",
			a.NextRowID(), a.RetiredRows(), b.NextRowID(), b.RetiredRows())
	}
	for _, r := range idsA {
		if a.IsValid(r) != b.IsValid(r) {
			t.Fatalf("validity differs at %d", r)
		}
		ra, err := a.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("row %d col %d: %v vs %v", r, i, ra[i], rb[i])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tb := buildTable(t, 500)
	tb.Delete(3)
	tb.Update(7, map[string]any{"qty": uint32(99)})
	var buf bytes.Buffer
	if err := Save(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, tb, got, equalTables)
}

func TestRoundTripAfterMerge(t *testing.T) {
	tb := buildTable(t, 300)
	if _, err := tb.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	// More rows into the fresh delta: snapshot spans main and delta.
	for i := 0; i < 50; i++ {
		tb.Insert([]any{uint64(1000 + i), uint32(1), "x"})
	}
	var buf bytes.Buffer
	if err := Save(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, tb, got, equalTables)
	// The loaded table merges cleanly.
	if _, err := got.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	equalStores(t, tb, got, equalTables)
}

func TestFileRoundTrip(t *testing.T) {
	tb := buildTable(t, 100)
	path := filepath.Join(t.TempDir(), "snap.hyr")
	if err := SaveFile(tb, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, tb, got, equalTables)
}

// TestMainDeltaSplitRestored checks that the loader restores the saved
// main/delta boundary instead of leaving everything in the delta.
func TestMainDeltaSplitRestored(t *testing.T) {
	tb := buildTable(t, 300)
	if _, err := tb.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tb.Insert([]any{uint64(1000 + i), uint32(1), "x"})
	}
	tb.Delete(2)   // invalidation in the main partition
	tb.Delete(310) // invalidation in the delta
	var buf bytes.Buffer
	if err := Save(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, tb, got, equalTables)
	if got.MainRows() != tb.MainRows() || got.DeltaRows() != tb.DeltaRows() {
		t.Fatalf("split main=%d delta=%d want main=%d delta=%d",
			got.MainRows(), got.DeltaRows(), tb.MainRows(), tb.DeltaRows())
	}
}

func buildSharded(t *testing.T, shards int) *shard.Table {
	t.Helper()
	st, err := shard.New("orders", table.Schema{
		{Name: "id", Type: table.Uint64},
		{Name: "qty", Type: table.Uint32},
		{Name: "sku", Type: table.String},
	}, "id", shards)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShardedRoundTrip saves and reloads a sharded table spanning main and
// delta partitions, checking topology, global row ids, invalidations and
// the per-shard main/delta split all survive.
func TestShardedRoundTrip(t *testing.T) {
	st := buildSharded(t, 4)
	var gids []int
	for i := 0; i < 400; i++ {
		gid, err := st.Insert([]any{uint64(i), uint32(i % 9), "sku-" + string(rune('a'+i%26))})
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, gid)
	}
	if err := st.Delete(gids[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Update(gids[7], map[string]any{"qty": uint32(99)}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	// Fresh delta rows so the snapshot spans main and delta in every shard.
	for i := 1000; i < 1100; i++ {
		if _, err := st.Insert([]any{uint64(i), uint32(2), "y"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete(gids[11]); err != nil { // invalidation in a merged main
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(st, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != st.Name() || got.NumShards() != st.NumShards() || got.KeyColumn() != st.KeyColumn() {
		t.Fatalf("topology: %q/%d/%q want %q/%d/%q",
			got.Name(), got.NumShards(), got.KeyColumn(),
			st.Name(), st.NumShards(), st.KeyColumn())
	}
	for i := 0; i < st.NumShards(); i++ {
		a, b := st.Shard(i), got.Shard(i)
		equalTables(t, a, b)
		if a.MainRows() != b.MainRows() || a.DeltaRows() != b.DeltaRows() {
			t.Fatalf("shard %d split: main=%d delta=%d want main=%d delta=%d",
				i, b.MainRows(), b.DeltaRows(), a.MainRows(), a.DeltaRows())
		}
	}
	// Global row ids are preserved: every saved row reads back identically
	// under its old gid, including validity — and gids reclaimed by the
	// pre-save merge stay reclaimed after the reload.
	for _, gid := range gids {
		want, werr := st.Row(gid)
		have, herr := got.Row(gid)
		if (werr == nil) != (herr == nil) {
			t.Fatalf("gid %d: error diverged: %v vs %v", gid, werr, herr)
		}
		if werr != nil {
			continue // reclaimed on both sides
		}
		for c := range want {
			if want[c] != have[c] {
				t.Fatalf("gid %d col %d: %v want %v", gid, c, have[c], want[c])
			}
		}
		if st.IsValid(gid) != got.IsValid(gid) {
			t.Fatalf("gid %d validity diverged", gid)
		}
	}
	// Lookups return the same global ids.
	ha, err := shard.ColumnOf[uint64](st, "id")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := shard.ColumnOf[uint64](got, "id")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{0, 7, 42, 399, 1050} {
		a, b := ha.Lookup(k), hb.Lookup(k)
		if len(a) != len(b) {
			t.Fatalf("lookup(%d): %v want %v", k, b, a)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("lookup(%d): %v want %v", k, b, a)
			}
		}
	}
}

// partitionSnapshot hand-encodes a one-shard snapshot of table "t" with a
// single column "c" of the given type byte, whose partition header is hdr
// (rows, main rows, next id, retired, reclaimed bytes, gc watermark); tail
// appends whatever row data the case wants to deliver.
func partitionSnapshot(typ uint8, hdr [6]uint64, tail func(w *writer)) []byte {
	var buf bytes.Buffer
	w := &writer{w: bufio.NewWriter(&buf)}
	w.bytes([]byte(Magic))
	w.u32(Version)
	w.str("t")
	w.u32(1)
	w.str("c")
	w.u8(typ)
	w.str("c") // key column
	w.u32(1)   // windows
	w.u32(0)   // window base
	w.u32(1)   // window partitions
	w.u8(0)    // not mid-reshard
	w.u64(1)   // shard-map version
	w.u64(1)   // clock
	for _, v := range hdr {
		w.u64(v)
	}
	if tail != nil {
		tail(w)
	}
	w.w.Flush()
	return buf.Bytes()
}

// oneColumnSnapshot is partitionSnapshot for a partition that claims rows
// rows, none in main, none retired.
func oneColumnSnapshot(typ uint8, rows uint64, tail func(w *writer)) []byte {
	return partitionSnapshot(typ, [6]uint64{rows, 0, rows}, tail)
}

// sections concatenates encoders.
func sections(parts ...func(w *writer)) func(w *writer) {
	return func(w *writer) {
		for _, part := range parts {
			part(w)
		}
	}
}

// u64s encodes words.
func u64s(vs ...uint64) func(w *writer) {
	return func(w *writer) { writeAll(vs, w.u64) }
}

// column encodes a uint64 column section: the main's dictionary, code width
// and packed words, then the delta values.
func column(dict []uint64, width uint8, words []uint64, delta ...uint64) func(w *writer) {
	return func(w *writer) {
		w.u64(uint64(len(dict)))
		writeAll(dict, w.u64)
		w.u8(width)
		w.u64(uint64(len(words)))
		writeAll(words, w.u64)
		writeAll(delta, w.u64)
	}
}

// emptyMain encodes the main section of an empty main partition of any type.
var emptyMain = column(nil, 0, nil)

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE00000000"),
		"truncated": append([]byte(Magic), byte(Version), 0, 0, 0),
		// An empty table that loads fine with a known type byte.
		"bad type byte": oneColumnSnapshot(uint8(table.String)+1, 0, emptyMain),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
	if _, err := Load(bytes.NewReader(oneColumnSnapshot(uint8(table.String), 0, emptyMain))); err != nil {
		t.Errorf("known type byte: %v", err)
	}
}

// TestLoadRejectsLyingRowCount feeds truncated snapshots whose headers
// claim huge row counts, string lengths, dictionaries or packed codes: the
// loader must fail promptly on the missing data instead of allocating per
// the claimed size.
func TestLoadRejectsLyingRowCount(t *testing.T) {
	oneRow := u64s(0, 1, 0) // row id, begin, end
	// One delta row whose string value claims n bytes and delivers 3.
	strValue := func(n uint32) []byte {
		return oneColumnSnapshot(uint8(table.String), 1, sections(oneRow, emptyMain, func(w *writer) {
			w.u32(n)
			w.bytes([]byte("abc"))
		}))
	}
	// One main row of a string column whose dictionary claims n entries and
	// delivers one.
	strDict := func(n uint64) []byte {
		return partitionSnapshot(uint8(table.String), [6]uint64{1, 1, 1}, sections(oneRow, func(w *writer) {
			w.u64(n)
			w.str("abc")
		}))
	}
	// One main row of a uint64 column whose code vector claims n words and
	// delivers one.
	words := func(n uint64) []byte {
		return partitionSnapshot(uint8(table.Uint64), [6]uint64{1, 1, 1}, sections(oneRow, func(w *writer) {
			w.u64(1)
			w.u64(7)
			w.u8(0)
			w.u64(n)
			w.u64(0)
		}))
	}
	for name, data := range map[string][]byte{
		"rows over bound":             oneColumnSnapshot(uint8(table.Uint64), 1<<62, nil),
		"rows, no data":               oneColumnSnapshot(uint8(table.Uint64), 1<<30, nil),
		"string length over bound":    strValue(maxString + 1),
		"string length, no data":      strValue(maxString),
		"dictionary count over bound": strDict(maxRows + 1),
		"dictionary count, no data":   strDict(1 << 30),
		"word count over bound":       words(maxRows + 1),
		"word count, no data":         words(1 << 30),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
		// The claims are 1 GiB and up; what the loader may allocate is a few
		// maxPrealloc-sized buffers.
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
			t.Errorf("%s: allocated %d MiB decoding %d bytes", name, got>>20, len(data))
		}
	}
}

// TestEpochRoundTrip checks that per-row begin/end
// epochs and the epoch clock survive the round trip, so a snapshot taken
// on the loaded store sees exactly what one taken pre-save would have.
func TestEpochRoundTrip(t *testing.T) {
	tb := buildTable(t, 50)
	tb.Snapshot() // advance the clock so rows land in distinct epochs
	tb.Delete(3)
	tb.Update(7, map[string]any{"qty": uint32(99)})
	tb.Snapshot()
	tb.Insert([]any{uint64(1000), uint32(1), "late"})

	wantBegin, wantEnd := tb.Shard(0).RowEpochs()
	var buf bytes.Buffer
	if err := Save(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gotBegin, gotEnd := got.Shard(0).RowEpochs()
	for i := range wantBegin {
		if wantBegin[i] != gotBegin[i] || wantEnd[i] != gotEnd[i] {
			t.Fatalf("row %d epochs %d/%d want %d/%d",
				i, gotBegin[i], gotEnd[i], wantBegin[i], wantEnd[i])
		}
	}
	if got.Clock().Now() != tb.Clock().Now() {
		t.Fatalf("clock %d want %d", got.Clock().Now(), tb.Clock().Now())
	}
	// A historical view reads identically on both: row 3 was alive at the
	// first captured epoch and dead afterwards.
	old := table.ViewAt(1)
	wasAlive, err := got.VisibleAt(old, 3)
	if err != nil {
		t.Fatal(err)
	}
	isAlive, err := got.VisibleAt(table.Latest(), 3)
	if err != nil || !wasAlive || isAlive {
		t.Fatal("loaded table lost the pre-delete history")
	}
}

// TestLoadRejectsWrongVersion: there is one format.  A well-formed snapshot
// relabelled with any other version — the retired ones included — fails
// with ErrFormat instead of being parsed under another layout, and so does
// every snapshot in testdata/v6.hyr, which the last version-6 writer wrote
// (materialized values, no dictionaries), and in testdata/v7.hyr, which the
// last version-7 writer wrote (a partition count and an active window, no
// window list); keep both files byte for byte.
func TestLoadRejectsWrongVersion(t *testing.T) {
	for _, v := range []int{6, 7} {
		fixture, err := os.ReadFile(fmt.Sprintf("testdata/v%d.hyr", v))
		if err != nil {
			t.Fatal(err)
		}
		for len(fixture) > 0 {
			n := int(binary.LittleEndian.Uint32(fixture))
			_, err := Load(bytes.NewReader(fixture[4 : 4+n]))
			if want := fmt.Sprintf("unsupported version %d", v); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), want) {
				t.Errorf("version-%d fixture: err = %v, want ErrFormat: %s", v, err, want)
			}
			fixture = fixture[4+n:]
		}
	}

	var buf bytes.Buffer
	if err := Save(buildTable(t, 10), &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, v := range []uint32{0, 1, 2, 3, 4, 5, 6, 7, 9, 99} {
		binary.LittleEndian.PutUint32(data[len(Magic):], v)
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
			t.Errorf("version %d: err = %v, want ErrFormat", v, err)
		}
	}
	binary.LittleEndian.PutUint32(data[len(Magic):], Version)
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("version %d: %v", Version, err)
	}
}

func TestEmptyTable(t *testing.T) {
	tb, _ := shard.New("empty", table.Schema{{Name: "v", Type: table.Uint64}}, "v", 1)
	var buf bytes.Buffer
	if err := Save(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 0 || got.Name() != "empty" {
		t.Fatalf("rows=%d name=%q", got.Rows(), got.Name())
	}
}

// TestLoadKeepsReadSet: a snapshot records the shard windows, so a loaded
// store reads what the saved one read.  The saved store has a sealed
// window of two partitions, one of them drained, and an active window of
// three; a key read visits one partition per window, before the save and
// after the load.
func TestLoadKeepsReadSet(t *testing.T) {
	schema := table.Schema{{Name: "id", Type: table.Uint64}, {Name: "qty", Type: table.Uint32}, {Name: "sku", Type: table.String}}
	st := halfDrainedStore(t, schema, func(i int) []any { return []any{uint64(i), uint32(i), "sku"} })
	cost := func(st *shard.Table) uint64 {
		t.Helper()
		h, err := shard.ColumnOf[uint64](st, "id")
		if err != nil {
			t.Fatal(err)
		}
		before := st.PartitionsRead()
		if ids := h.Lookup(4); len(ids) != 1 {
			t.Fatalf("Lookup(4) = %v", ids)
		}
		return st.PartitionsRead() - before
	}
	saved := cost(st)
	var buf bytes.Buffer
	if err := Save(st, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded := cost(got); saved != 2 || loaded != saved {
		t.Fatalf("a key read visits %d partitions before the save and %d after the load, want 2 and 2", saved, loaded)
	}
}

// TestMidReshardLoadAwaitsCutover: a store saved mid-reshard loads with
// its post-cutover map, flagged, and prunes nothing until it applies the
// cutover: a write that routed by the old map may still be replayed into
// the empty sealed partition.  The cutover at the loaded map's own version
// ends the wait.
func TestMidReshardLoadAwaitsCutover(t *testing.T) {
	st, err := shard.New("t", table.Schema{{Name: "k", Type: table.Uint64}}, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyReshardBegin(1, 2, 2); err != nil { // the migrating map of a 1 -> 2 reshard
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(st, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resharding() || got.MapVersion() != 3 || len(got.Partitions()) != 3 {
		t.Fatalf("loaded: resharding %v, map v%d, %d partitions; want the cutover map v3 of 3",
			got.Resharding(), got.MapVersion(), len(got.Partitions()))
	}
	if _, err := got.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if got.Shard(0) == nil {
		t.Fatal("a merge pruned the empty sealed partition before the cutover was applied")
	}
	if err := got.ApplyReshardCutover(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if got.Shard(0) != nil || len(got.Partitions()) != 2 {
		t.Fatalf("after the cutover %d partitions, want 2: the empty sealed window left", len(got.Partitions()))
	}
}
