package shard

import (
	"context"
	"sync/atomic"
	"testing"

	"hyrise/internal/table"
)

// TestOnePartitionLatestReread: a latest key read of a one-partition store
// runs inline without a pin, so a reshard that publishes its partitions
// and moves the key's row before the read takes the old partition's lock
// leaves that read empty.  fanOut sees the partition count grow and reads
// again under a pin, across both windows, and finds the row once.
func TestOnePartitionLatestReread(t *testing.T) {
	st := newKV(t, 1)
	for i := range 50 {
		if _, err := st.Insert([]any{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var calls atomic.Int32 // the re-read runs on pool workers
	read := func(p *table.Table, v table.View) (*table.Selection, error) {
		if calls.Add(1) == 1 {
			if _, err := st.Reshard(context.Background(), 2); err != nil {
				return nil, err
			}
		}
		return p.Read(v, table.Plan{Preds: []table.Pred{{Col: 0, Lo: uint64(7)}}})
	}
	s, err := fanOut(st, table.Latest(), uint64(7), 0, read)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 1 {
		t.Fatalf("rows = %v, want one", s.Rows)
	}
	if n := calls.Load(); n < 2 {
		t.Fatalf("%d reads, want the first one repeated", n)
	}
}
