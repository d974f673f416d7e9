package server_test

import (
	"sync"
	"testing"
	"time"

	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// TestServedLatestReadsOneEpoch is the served twin of the store's one-epoch
// test: against a two-shard server, latest ValidRows and Sum (token 0)
// must see every row exactly once while a writer keeps moving rows to new
// keys, about half of them into the other shard.  Each move switches the
// row's version atomically at one epoch, so the count and the sum never
// change at any epoch; a read at each partition's own "now" can count a
// moving row 0 or 2 times.
func TestServedLatestReadsOneEpoch(t *testing.T) {
	const n = 2000
	st, err := shard.New("moves", table.Schema{
		{Name: "k", Type: table.Uint64},
		{Name: "v", Type: table.Uint64},
	}, "k", 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, n)
	for i := range ids {
		if ids[i], err = st.Insert([]any{uint64(i), uint64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	c, _, _ := startServer(t, st)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := uint64(1); ; round++ {
			for i := range ids {
				select {
				case <-stop:
					return
				default:
				}
				id, err := st.Update(ids[i], map[string]any{"k": round*n + uint64(i)})
				if err != nil {
					t.Errorf("move row %d: %v", i, err)
					return
				}
				ids[i] = id
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		rows, err := c.ValidRows()
		if err != nil || rows != n {
			t.Fatalf("ValidRows() = %d, %v, want %d", rows, err, n)
		}
		sum, err := c.Sum("v")
		if err != nil || sum != n {
			t.Fatalf("Sum(v) = %d, %v, want %d", sum, err, n)
		}
	}
}
