// Command networked demonstrates the network front end end to end in one
// process: it serves a 4-shard store with hyrise.Serve, keeps the merge
// scheduler compacting underneath, and drives a mixed workload through
// the pooled network client — concurrent writers, a pinned snapshot that
// stays frozen while they run, cross-shard-consistent aggregates, and a
// graceful drain.  The same client code talks to a standalone hyrised
// daemon: swap the listener for its address.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"hyrise"
	"hyrise/client"
)

func main() {
	// Server side: a sharded store, a merge scheduler bounding the delta
	// fraction while traffic flows, and the network listener.
	st, err := hyrise.NewShardedTable("sales", hyrise.Schema{
		{Name: "order_id", Type: hyrise.Uint64},
		{Name: "qty", Type: hyrise.Uint32},
		{Name: "product", Type: hyrise.String},
	}, "order_id", 4)
	if err != nil {
		log.Fatal(err)
	}
	sched := hyrise.NewScheduler(st, hyrise.SchedulerConfig{
		Fraction: 0.05,
		Interval: 5 * time.Millisecond,
	})
	if err := sched.Start(); err != nil {
		log.Fatal(err)
	}
	defer sched.Stop()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := hyrise.Serve(l, st, hyrise.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %q on %s\n", st.Name(), l.Addr())

	// Client side: one pooled client, shared by several goroutines.
	c, err := hyrise.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Bulk-load through the pipelined batch path.
	var batch [][]any
	for i := 1; i <= 2000; i++ {
		p := "widget"
		if i%5 == 0 {
			p = "gadget"
		}
		batch = append(batch, []any{uint64(i), uint32(i % 7), p})
	}
	if _, err := c.InsertBatch(batch); err != nil {
		log.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d rows across %d shards\n", len(batch), stats.Shards)

	// Pin a snapshot, then let concurrent writers churn.
	snap, err := c.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	pinned, _ := c.SumAt(snap, "qty")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := uint64(w*300 + i + 1)
				rows, err := c.Lookup("order_id", key)
				if err != nil || len(rows) == 0 {
					continue
				}
				if _, err := c.Update(rows[0], map[string]any{"qty": 50 + i%10}); err != nil {
					log.Printf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The pinned aggregate is untouched by 1200 updates and however many
	// merges the scheduler ran; latest sees the churn.
	after, _ := c.SumAt(snap, "qty")
	latest, _ := c.Sum("qty")
	fmt.Printf("pinned sum %d -> %d (frozen), latest sum %d\n", pinned, after, latest)
	if err := c.Release(snap); err != nil {
		log.Fatal(err)
	}

	// A projected cross-shard query.
	res, err := c.Query([]client.Filter{
		{Column: "product", Op: client.Eq, Value: "gadget"},
		{Column: "order_id", Op: client.Between, Value: 1, Hi: 100},
	}, []string{"order_id", "qty"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query matched %d gadget orders in [1,100]\n", res.Count())

	if stats, err = c.Stats(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d rows (%d valid), delta %d, %d request(s) served\n",
		stats.Rows, stats.ValidRows, stats.DeltaRows, stats.Requests)

	// Graceful drain: in-flight requests finish, then sessions close.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained cleanly")
}
