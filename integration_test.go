package hyrise_test

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrise"
)

// TestIntegrationCSVToQueries drives the full ingest path: batch insert →
// multi-column queries → merge → identical answers → snapshot round trip.
func TestIntegrationCSVToQueries(t *testing.T) {
	tb, err := hyrise.NewTable("orders", hyrise.Schema{
		{Name: "order_id", Type: hyrise.Uint64},
		{Name: "customer", Type: hyrise.Uint64},
		{Name: "qty", Type: hyrise.Uint32},
		{Name: "product", Type: hyrise.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 2000)
	for i := range rows {
		rows[i] = []any{uint64(i), uint64(i % 40), uint32(i % 15),
			[]string{"widget", "gadget", "sprocket"}[i%3]}
	}
	ids, err := tb.InsertRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2000 {
		t.Fatalf("inserted %d", len(ids))
	}

	filters := []hyrise.Filter{
		{Column: "product", Op: hyrise.FilterEq, Value: "widget"},
		{Column: "customer", Op: hyrise.FilterBetween, Value: uint64(0), Hi: uint64(19)},
		{Column: "qty", Op: hyrise.FilterBetween, Value: uint32(5), Hi: uint32(9)},
	}
	before, err := hyrise.Query(tb, filters, []string{"order_id"})
	if err != nil {
		t.Fatal(err)
	}
	if before.Count() == 0 {
		t.Fatal("query matched nothing")
	}

	if _, err := tb.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	after, err := hyrise.Query(tb, filters, []string{"order_id"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Count() != before.Count() {
		t.Fatalf("merge changed query: %d vs %d", after.Count(), before.Count())
	}
	for i := range before.Rows {
		if before.Rows[i] != after.Rows[i] || before.Values[i][0] != after.Values[i][0] {
			t.Fatalf("row %d diverged across merge", i)
		}
	}

	// Snapshot round trip preserves query results.
	path := filepath.Join(t.TempDir(), "orders.hyr")
	if err := hyrise.SaveFile(tb, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := hyrise.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := hyrise.Query(loaded, filters, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Count() != before.Count() {
		t.Fatalf("snapshot changed query: %d vs %d", again.Count(), before.Count())
	}
}

// TestIntegrationSchedulerUnderLoad runs the scheduler against concurrent
// writers and checks the §4 invariant it exists to maintain: the delta
// fraction stays bounded while no writes are lost.  The writers insert
// until the scheduler has merged at least once, so a fast host cannot
// finish them between two polls; then, with the scheduler still running,
// every partition's delta fraction must fall to the trigger fraction.
func TestIntegrationSchedulerUnderLoad(t *testing.T) {
	tb, err := hyrise.NewTable("t", hyrise.Schema{{Name: "k", Type: hyrise.Uint64}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		tb.Insert([]any{uint64(i % 1000)})
	}
	if _, err := tb.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		t.Fatal(err)
	}

	const fraction = 0.05
	s := hyrise.NewScheduler(tb, hyrise.SchedulerConfig{
		Fraction:     fraction,
		MinDeltaRows: 100,
		Interval:     2 * time.Millisecond,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	deadline := time.Now().Add(time.Minute)
	var (
		wg       sync.WaitGroup
		inserted atomic.Int64
		stop     atomic.Bool
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := tb.Insert([]any{uint64(i % 997)}); err != nil {
					t.Error(err)
					return
				}
				inserted.Add(1)
			}
		}()
	}
	for s.Merges() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if s.Merges() == 0 {
		t.Fatalf("scheduler never merged under sustained load (%d inserts)", inserted.Load())
	}
	for _, p := range tb.Partitions() {
		for p.DeltaFraction() > fraction {
			if time.Now().After(deadline) {
				t.Fatalf("delta fraction %.3f stays above %.2f with the scheduler running", p.DeltaFraction(), fraction)
			}
			time.Sleep(time.Millisecond)
		}
	}
	s.Stop()
	if s.LastErr() != nil {
		t.Fatal(s.LastErr())
	}
	want := 100_000 + int(inserted.Load())
	if tb.Rows() != want {
		t.Fatalf("rows %d want %d", tb.Rows(), want)
	}
	if got := tb.MainRows() + tb.DeltaRows(); got != want {
		t.Fatalf("main+delta %d want %d", got, want)
	}
	// One final manual merge leaves a clean state.
	if _, err := tb.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if tb.DeltaRows() != 0 || tb.MainRows() != want {
		t.Fatalf("final state main=%d delta=%d", tb.MainRows(), tb.DeltaRows())
	}
}
