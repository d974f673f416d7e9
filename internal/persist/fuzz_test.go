package persist

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// seedStores returns one store per shape the format can take: a one-shard
// store spanning main and delta, a store whose merge retired ids, a 3-shard
// store, a resharded store with sealed partitions, a store whose drained
// first window left a hole, a store whose sealed window is half drained,
// and the two dictionary extremes — columns with a single distinct value (0-bit codes, no words)
// and a string column whose every value is distinct.  The stores are a few
// rows each: short seeds keep the fuzzer's input minimization from eating a
// smoke run's whole time budget.  They are built deterministically —
// testdata/v8.hyr is their snapshots (TestGoldenV8).
func seedStores(t testing.TB) []*shard.Table {
	t.Helper()
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	schema := table.Schema{
		{Name: "id", Type: table.Uint64},
		{Name: "qty", Type: table.Uint32},
		{Name: "sku", Type: table.String},
	}
	row := func(i int) []any { return []any{uint64(i), uint32(i % 7), "sku-" + string(rune('a'+i%26))} }

	flat, err := shard.New("orders", schema, "id", 1)
	must(err)
	for i := 0; i < 4; i++ {
		_, err := flat.Insert(row(i))
		must(err)
	}
	_, err = flat.RequestMerge(ctx, table.MergeOptions{})
	must(err)
	for i := 4; i < 6; i++ {
		_, err := flat.Insert(row(i))
		must(err)
	}
	must(flat.Delete(2))

	gc, err := shard.New("orders", schema, "id", 1)
	must(err)
	for i := 0; i < 4; i++ {
		_, err := gc.Insert(row(i))
		must(err)
	}
	gc.Snapshot().Release() // advance the clock: the churn below gets its own epoch
	for i := 0; i < 2; i++ {
		_, err := gc.Update(i, map[string]any{"qty": uint32(100 + i)})
		must(err)
	}
	_, err = gc.RequestMerge(ctx, table.MergeOptions{})
	must(err)
	if gc.StoreStats().RetiredRows == 0 {
		t.Fatal("GC seed retired no ids")
	}
	_, err = gc.Update(3, map[string]any{"qty": uint32(999)})
	must(err)

	sharded, err := shard.New("orders", schema, "id", 3)
	must(err)
	resharded, err := shard.New("orders", schema, "id", 2)
	must(err)
	for _, st := range []*shard.Table{sharded, resharded} {
		for i := 0; i < 6; i++ {
			_, err := st.Insert(row(i))
			must(err)
		}
	}
	_, err = sharded.RequestMerge(ctx, table.MergeOptions{})
	must(err)
	_, err = sharded.Insert(row(6))
	must(err)
	_, err = resharded.Reshard(ctx, 3)
	must(err)
	if _, top := resharded.PersistTopology(); len(top.Windows) != 2 || !resharded.Shard(0).Sealed() {
		t.Fatal("reshard seed has no sealed partition")
	}
	holed := holedStore(t, schema, row)
	halfDrained := halfDrainedStore(t, schema, row)

	single, err := shard.New("orders", schema, "id", 1)
	must(err)
	unique, err := shard.New("orders", schema, "id", 1)
	must(err)
	for i := 0; i < 5; i++ {
		_, err := single.Insert([]any{uint64(i), uint32(5), "same"})
		must(err)
		_, err = unique.Insert(row(i))
		must(err)
	}
	for _, st := range []*shard.Table{single, unique} {
		_, err = st.RequestMerge(ctx, table.MergeOptions{})
		must(err)
	}
	_, err = single.Insert([]any{uint64(5), uint32(5), "same"})
	must(err)
	for _, cs := range single.Shard(0).Stats().Columns[1:] {
		if cs.UniqueMain != 1 || cs.Bits != 0 {
			t.Fatalf("single-value seed: column %q has %d values in %d bits", cs.Def.Name, cs.UniqueMain, cs.Bits)
		}
	}
	if cs := unique.Shard(0).Stats().Columns[2]; cs.UniqueMain != cs.MainRows {
		t.Fatalf("all-unique seed: %d values in %d rows", cs.UniqueMain, cs.MainRows)
	}

	return []*shard.Table{flat, gc, sharded, resharded, holed, halfDrained, single, unique}
}

// holedStore returns a store resharded 1 -> 2, merged twice, so its drained
// first window left the store, then resharded 2 -> 3: windows [1, 3) and
// [3, 6), with a hole at partition 0.
func holedStore(t testing.TB, schema table.Schema, row func(int) []any) *shard.Table {
	t.Helper()
	ctx := context.Background()
	st, err := shard.New("orders", schema, "id", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := st.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []func() error{
		func() error { _, err := st.Reshard(ctx, 2); return err },
		func() error { _, err := st.RequestMerge(ctx, table.MergeOptions{}); return err },
		func() error { _, err := st.RequestMerge(ctx, table.MergeOptions{}); return err },
		func() error { _, err := st.Reshard(ctx, 3); return err },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, top := st.PersistTopology(); st.Shard(0) != nil || len(top.Windows) != 2 || top.Windows[0] != (shard.Span{Base: 1, N: 2}) {
		t.Fatalf("hole seed: partition 0 present or windows %v", top.Windows)
	}
	return st
}

// halfDrainedStore returns a store resharded 2 -> 3 whose sealed window
// [0, 2) holds versions in partition 1 only: partition 0 alone merged its
// migrated versions away.
func halfDrainedStore(t testing.TB, schema table.Schema, row func(int) []any) *shard.Table {
	t.Helper()
	ctx := context.Background()
	st, err := shard.New("orders", schema, "id", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := st.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Reshard(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Shard(0).Merge(ctx, table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if st.Shard(0).Rows() != 0 || st.Shard(1).Rows() == 0 || len(st.Partitions()) != 5 {
		t.Fatalf("half-drained seed: sealed partitions hold %d and %d versions, %d partitions",
			st.Shard(0).Rows(), st.Shard(1).Rows(), len(st.Partitions()))
	}
	return st
}

// fuzzSeeds returns the snapshots of seedStores.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, st := range seedStores(t) {
		var buf bytes.Buffer
		if err := Save(st, &buf); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// equalPartitions is equalTables plus everything else a partition section
// records: epochs, the main/delta split, the GC counters and the seal.
func equalPartitions(t *testing.T, a, b *table.Table) {
	t.Helper()
	equalTables(t, a, b)
	if !slices.Equal(a.Schema(), b.Schema()) {
		t.Fatalf("schema %v vs %v", a.Schema(), b.Schema())
	}
	beginA, endA := a.RowEpochs()
	beginB, endB := b.RowEpochs()
	if !slices.Equal(beginA, beginB) || !slices.Equal(endA, endB) {
		t.Fatal("row epochs differ")
	}
	if a.MainRows() != b.MainRows() || a.DeltaRows() != b.DeltaRows() {
		t.Fatalf("split main=%d delta=%d vs main=%d delta=%d", a.MainRows(), a.DeltaRows(), b.MainRows(), b.DeltaRows())
	}
	if a.ReclaimedBytes() != b.ReclaimedBytes() || a.GCWatermark() != b.GCWatermark() || a.Sealed() != b.Sealed() {
		t.Fatalf("GC state %d/%d/%v vs %d/%d/%v", a.ReclaimedBytes(), a.GCWatermark(), a.Sealed(),
			b.ReclaimedBytes(), b.GCWatermark(), b.Sealed())
	}
}

// FuzzLoad feeds arbitrary bytes to the snapshot loader: it must never
// panic — a mutated dictionary, code width, word count or packed word
// included — every rejection must wrap ErrFormat (the input is in memory,
// so there is no I/O error to pass through), and whatever it accepts must
// survive a further Save/Load with identical rows, ids, epochs and
// topology.
func FuzzLoad(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("rejected without ErrFormat: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Save(st, &buf); err != nil {
			t.Fatalf("save of a loaded store: %v", err)
		}
		st2, err := Load(&buf)
		if err != nil {
			t.Fatalf("reload of a saved store: %v", err)
		}
		if st.Name() != st2.Name() || st.KeyColumn() != st2.KeyColumn() || st.Clock().Now() != st2.Clock().Now() {
			t.Fatalf("%q/%q clock=%d vs %q/%q clock=%d", st.Name(), st.KeyColumn(), st.Clock().Now(),
				st2.Name(), st2.KeyColumn(), st2.Clock().Now())
		}
		equalStores(t, st, st2, equalPartitions)
	})
}
