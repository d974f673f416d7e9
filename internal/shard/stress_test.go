package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrise/internal/sched"
	"hyrise/internal/table"
)

// TestConcurrentStress runs concurrent writers, readers and the background
// multi-shard merge scheduler against one sharded table (run under -race
// in CI).  Invariants checked while merges commit underneath the readers:
//
//   - a key published by a writer always resolves to exactly one valid
//     row (updates replace versions atomically per shard), so a reader
//     can never observe a partially committed merge or a lost row;
//   - the final state accounts for every insert, update and delete.
func TestConcurrentStress(t *testing.T) {
	const (
		shards     = 4
		writers    = 4
		readers    = 3
		opsPerWrtr = 800
	)
	st := newKV(t, shards)
	var schedMerges atomic.Int64
	ms := sched.New(st.Partitions, sched.Config{
		Fraction:     0.01,
		MinDeltaRows: 16,
		Interval:     2 * time.Millisecond,
		OnMerge:      func(table.Report) { schedMerges.Add(1) },
		OnError: func(err error) {
			// ErrMergeInProgress cannot happen (the scheduler is the only
			// merger and runs one merge per partition at a time); anything
			// here is a real failure.
			t.Errorf("scheduler merge error: %v", err)
		},
	})
	if err := ms.Start(); err != nil {
		t.Fatal(err)
	}

	// published holds keys readers are allowed to verify.  Keys are
	// globally unique: writer w owns keys w*10^9 + i.
	var (
		pubMu     sync.Mutex
		published []uint64
	)
	publish := func(k uint64) {
		pubMu.Lock()
		published = append(published, k)
		pubMu.Unlock()
	}
	pick := func(i int) (uint64, bool) {
		pubMu.Lock()
		defer pubMu.Unlock()
		if len(published) == 0 {
			return 0, false
		}
		return published[i%len(published)], true
	}

	var deletes atomic.Int64
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			base := uint64(w) * 1_000_000_000
			for i := 0; i < opsPerWrtr; i++ {
				k := base + uint64(i)
				gid, err := st.Insert([]any{k, uint64(i)})
				if err != nil {
					t.Errorf("writer %d insert: %v", w, err)
					return
				}
				switch i % 5 {
				case 1:
					// Update the value in place; the key keeps exactly one
					// valid version throughout.
					if _, err := st.Update(gid, map[string]any{"v": uint64(i * 2)}); err != nil {
						t.Errorf("writer %d update: %v", w, err)
						return
					}
				case 2:
					// Delete the freshly inserted row; never publish it.
					if err := st.Delete(gid); err != nil {
						t.Errorf("writer %d delete: %v", w, err)
						return
					}
					deletes.Add(1)
					continue
				}
				publish(k)
			}
		}(w)
	}

	stop := make(chan struct{})
	var reads atomic.Int64
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			h, err := ColumnOf[uint64](st, "k")
			if err != nil {
				t.Error(err)
				return
			}
			nh, err := NumericColumnOf[uint64](st, "v")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k, ok := pick(r*7919 + i)
				if !ok {
					continue
				}
				rows := h.Lookup(k)
				if len(rows) != 1 {
					t.Errorf("reader %d: key %d has %d valid rows mid-merge, want exactly 1 (rows=%v)",
						r, k, len(rows), rows)
					return
				}
				if i%50 == 0 {
					// Exercise cross-shard fan-in paths under merge churn.
					nh.Sum()
					h.Range(k, k+10)
				}
				reads.Add(1)
			}
		}(r)
	}

	writerWG.Wait()
	// Give readers a short window racing only the background scheduler.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	readerWG.Wait()
	ms.Stop()
	if err := ms.LastErr(); err != nil {
		t.Fatalf("scheduler errors: %v", err)
	}

	// Final full merge, then verify accounting.
	if _, err := st.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	inserted := writers * opsPerWrtr
	wantValid := inserted - int(deletes.Load())
	if got := st.ValidRows(); got != wantValid {
		t.Fatalf("ValidRows = %d want %d (no lost rows)", got, wantValid)
	}
	if st.DeltaRows() != 0 {
		t.Fatalf("DeltaRows = %d after RequestMerge", st.DeltaRows())
	}
	h, _ := ColumnOf[uint64](st, "k")
	pubMu.Lock()
	finalKeys := append([]uint64(nil), published...)
	pubMu.Unlock()
	for _, k := range finalKeys {
		if rows := h.Lookup(k); len(rows) != 1 {
			t.Fatalf("after final merge key %d has %d valid rows", k, len(rows))
		}
	}
	if reads.Load() == 0 {
		t.Fatal("readers never ran")
	}
	t.Logf("stress: %d inserts, %d deletes, %d scheduler merges, %d verified reads",
		inserted, deletes.Load(), schedMerges.Load(), reads.Load())
}
