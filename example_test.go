package hyrise_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"hyrise"
	"hyrise/client"
)

// Create a table, write, query, merge and inspect it, then grow it from
// one shard to four while it stays readable.
func Example() {
	s, err := hyrise.NewTable("sales", hyrise.Schema{
		{Name: "order_id", Type: hyrise.Uint64},
		{Name: "qty", Type: hyrise.Uint32},
		{Name: "product", Type: hyrise.String},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Writes append to the delta partitions (paper §3).  InsertRows
	// batches validation and locking, and groups rows per destination
	// shard when there are several.
	products := []string{"widget", "gadget", "sprocket"}
	batch := make([][]any, 0, 10000)
	for i := 0; i < 10000; i++ {
		batch = append(batch, []any{uint64(i), uint32(i % 7), products[i%3]})
	}
	ids, err := s.InsertRows(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after inserts: main=%d rows, delta=%d rows\n", s.MainRows(), s.DeltaRows())

	// Updates are insert-only: a new version is appended and the old one
	// invalidated.
	newRow, err := s.Update(ids[42], map[string]any{"qty": uint32(99)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update: row %d -> new version at row %d\n", ids[42], newRow)
	if err := s.Delete(ids[7]); err != nil {
		log.Fatal(err)
	}

	// Typed handles span main and delta transparently, and fan out across
	// shards in parallel when there are several.
	orders, err := hyrise.ColumnOf[uint64](s, "order_id")
	if err != nil {
		log.Fatal(err)
	}
	qty, err := hyrise.NumericColumnOf[uint32](s, "qty")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup order 42 -> rows %v\n", orders.Lookup(42))
	fmt.Printf("range [100,104] -> %d rows\n", len(orders.Range(100, 104)))
	fmt.Printf("sum(qty) = %d\n", qty.Sum())

	// Conjunctive multi-column queries, column-at-a-time.
	res, err := hyrise.Query(s, []hyrise.Filter{
		{Column: "product", Op: hyrise.FilterEq, Value: "gadget"},
		{Column: "order_id", Op: hyrise.FilterBetween, Value: 0, Hi: 299},
	}, []string{"order_id"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("product=gadget AND order_id in [0,299] -> %d rows\n", res.Count())

	// The merge folds the deltas into the compressed mains online and
	// commits atomically (paper §5-6), reclaiming the dead versions.
	rep, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merge: %d delta rows folded, main now %d rows\n", rep.RowsMerged, rep.MainRowsAfter)
	fmt.Printf("after merge: lookup order 42 -> rows %v, sum(qty) = %d\n", orders.Lookup(42), qty.Sum())

	// Any table reshards online: rows migrate into four fresh partitions
	// keyed by order_id while reads and writes keep flowing.  Migrated
	// rows get new ids; handles read the current partitions, so the ones
	// resolved above still see every row.
	rr, err := s.Reshard(context.Background(), 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reshard %d -> %d shards: %d rows migrated\n", rr.From, rr.To, rr.RowsMigrated)
	fmt.Printf("after reshard: %d valid rows, order 42 -> %d row, sum(qty) = %d\n",
		s.ValidRows(), len(orders.Lookup(42)), qty.Sum())

	// The sealed partition still holds the migrated-away versions until a
	// merge reclaims them; then it leaves the store.
	fmt.Printf("partitions: %d while draining", len(s.Partitions()))
	for range 2 {
		if _, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf(", %d once merged\n", len(s.Partitions()))
	// Output:
	// after inserts: main=0 rows, delta=10000 rows
	// update: row 42 -> new version at row 10000
	// lookup order 42 -> rows [10000]
	// range [100,104] -> 5 rows
	// sum(qty) = 30093
	// product=gadget AND order_id in [0,299] -> 99 rows
	// merge: 10001 delta rows folded, main now 9999 rows
	// after merge: lookup order 42 -> rows [10000], sum(qty) = 30093
	// reshard 1 -> 4 shards: 9999 rows migrated
	// after reshard: 9999 valid rows, order 42 -> 1 row, sum(qty) = 30093
	// partitions: 5 while draining, 4 once merged
}

// Serve a 4-shard table over TCP while the merge scheduler compacts it
// underneath, and drive it through the pooled network client: concurrent
// writers, a pinned snapshot that stays frozen while they run, a
// cross-shard query and a graceful drain.  The same client code talks to
// a standalone hyrised daemon.
func ExampleServe() {
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

	// Pin a snapshot, then let four writers share the client and update
	// 1200 orders while the scheduler merges.
	snap, err := c.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	pinned, err := c.SumAt(snap, "qty")
	if err != nil {
		log.Fatal(err)
	}
	if err := updateOrders(c, 4, 300); err != nil {
		log.Fatal(err)
	}

	// The pinned aggregate is untouched by the updates and by every merge
	// the scheduler ran; latest sees the churn.
	after, err := c.SumAt(snap, "qty")
	if err != nil {
		log.Fatal(err)
	}
	latest, err := c.Sum("qty")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned sum %d -> %d (frozen), latest sum %d\n", pinned, after, latest)
	if err := c.Release(snap); err != nil {
		log.Fatal(err)
	}

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
	fmt.Printf("server: %d valid rows\n", stats.ValidRows)

	// Graceful drain: in-flight requests finish, then sessions close.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained cleanly")
	// Output:
	// loaded 2000 rows across 4 shards
	// pinned sum 6000 -> 6000 (frozen), latest sum 67803
	// query matched 20 gadget orders in [1,100]
	// server: 2000 valid rows
	// server drained cleanly
}

// Replicate a 4-shard primary to two followers in one process.  Each
// follower bootstraps from the primary's snapshot stream and applies its
// live ops; a pooled client with Followers configured routes reads to
// them, and a pinned snapshot read is exact at its epoch whichever server
// answers it.  The same wiring runs as daemons: hyrised -replicate for the
// primary, hyrised -follow for each follower.
func ExampleFollow() {
	st, err := hyrise.NewShardedTable("sales", hyrise.Schema{
		{Name: "order_id", Type: hyrise.Uint64},
		{Name: "qty", Type: hyrise.Uint32},
		{Name: "product", Type: hyrise.String},
	}, "order_id", 4)
	if err != nil {
		log.Fatal(err)
	}
	olog, err := hyrise.EnableReplication(st, 0)
	if err != nil {
		log.Fatal(err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	psrv, err := hyrise.Serve(pl, st, hyrise.ServerOptions{OpLog: olog})
	if err != nil {
		log.Fatal(err)
	}
	defer psrv.Close()
	paddr := pl.Addr().String()

	// Each follower is served read-only on its own port, with its
	// observability endpoint (metrics and /healthz) on another.
	var faddrs, fobs []string
	for i := 0; i < 2; i++ {
		rep, err := hyrise.Follow(paddr, hyrise.ReplicaOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer rep.Close()
		fl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		fsrv, err := hyrise.Serve(fl, hyrise.FollowStore(rep), hyrise.ServerOptions{Replica: rep})
		if err != nil {
			log.Fatal(err)
		}
		defer fsrv.Close()
		ol, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ol.Close()
		go http.Serve(ol, fsrv.ObsHandler())
		faddrs = append(faddrs, fl.Addr().String())
		fobs = append(fobs, "http://"+ol.Addr().String())
	}

	// Snapshot reads go to any follower that has applied the snapshot's
	// epoch, latest reads to any follower lagging at most MaxStaleness
	// epochs; everything else, and every failure, goes to the primary.
	c, err := client.DialOptions(paddr, client.Options{
		Followers:    faddrs,
		MaxStaleness: 1 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	var batch [][]any
	for i := 1; i <= 2000; i++ {
		batch = append(batch, []any{uint64(i), uint32(i % 7), "widget"})
	}
	if _, err := c.InsertBatch(batch); err != nil {
		log.Fatal(err)
	}

	// Pin a snapshot and wait until both followers have applied it, so
	// the writers' routed lookups find every order.
	snap, err := c.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	for _, obs := range fobs {
		if err := waitReady(obs, uint64(snap)); err != nil { // a Snap is its epoch
			log.Fatal(err)
		}
	}
	pinned, err := c.SumAt(snap, "qty")
	if err != nil {
		log.Fatal(err)
	}

	// Routed snapshot reads while writers churn the primary: the answer
	// stays frozen at the pinned epoch whichever server serves it.
	done := make(chan error, 1)
	go func() { done <- updateOrders(c, 4, 200) }()
	for i := 0; i < 20; i++ {
		got, err := c.SumAt(snap, "qty")
		if err != nil {
			log.Fatal(err)
		}
		if got != pinned {
			log.Fatalf("snapshot read moved: %d then %d", pinned, got)
		}
	}
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned sum %d stayed frozen through 800 updates\n", pinned)
	if err := c.Release(snap); err != nil {
		log.Fatal(err)
	}

	// Converge: a fresh snapshot's epoch is applied by both followers, as
	// their /healthz and their own metrics agree, and the routed aggregate
	// at that snapshot equals the primary's.
	snap2, err := c.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	e2 := uint64(snap2)
	for i, obs := range fobs {
		if err := waitReady(obs, e2); err != nil {
			log.Fatal(err)
		}
		fc, err := client.Dial(faddrs[i])
		if err != nil {
			log.Fatal(err)
		}
		samples, err := fc.Metrics()
		fc.Close()
		if err != nil {
			log.Fatal(err)
		}
		if applied := metric(samples, "hyrise_replica_applied_epoch"); applied < e2 {
			log.Fatalf("follower %d applied epoch %d, want >= %d", i, applied, e2)
		}
		fmt.Printf("follower %d: role=%s, converged\n", i, fc.Role())
	}
	samples, err := c.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary: %d followers subscribed\n", metric(samples, "hyrise_oplog_subscribers"))
	final, err := c.SumAt(snap2, "qty")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final sum %d\n", final)
	if err := c.Release(snap2); err != nil {
		log.Fatal(err)
	}
	// Output:
	// pinned sum 6000 stayed frozen through 800 updates
	// follower 0: role=follower, converged
	// follower 1: role=follower, converged
	// primary: 2 followers subscribed
	// final sum 47203
}

// A merge that brings new values into a column recomputes its code width
// E_C = ceil(log2 |dictionary|): six distinct values pack into 3 bits per
// tuple, and three more grow the dictionary to nine and the codes to 4
// bits (paper Figure 5).
func ExampleTable_RequestMerge() {
	t, err := hyrise.NewTable("widths", hyrise.Schema{{Name: "v", Type: hyrise.Uint64}})
	if err != nil {
		log.Fatal(err)
	}
	insert := func(n int, value func(i int) uint64) {
		for i := 0; i < n; i++ {
			if _, err := t.Insert([]any{value(i)}); err != nil {
				log.Fatal(err)
			}
		}
	}
	insert(1000, func(i int) uint64 { return uint64(i % 6) })
	if _, err := t.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		log.Fatal(err)
	}
	before := t.StoreStats().Partitions[0].Columns[0].Bits

	insert(100, func(i int) uint64 { return uint64(100 + i%3) })
	rep, err := t.RequestMerge(context.Background(), hyrise.MergeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	col := rep.Columns[0]
	fmt.Printf("%d rows: dictionary %d -> %d entries, %d -> %d bits per tuple\n",
		rep.MainRowsAfter, col.UniqueMain, col.UniqueMerged, before, col.BitsAfter)
	// Output:
	// 1100 rows: dictionary 6 -> 9 entries, 3 -> 4 bits per tuple
}

// Supervise a 4-shard table with the background merge scheduler while
// order entry and a reporting scan run on it: each partition merges on
// its own once its delta passes 2% of its main (paper §4), and reads stay
// consistent throughout.  MergeNow drains what is left, as hyrised does on
// shutdown.
func ExampleNewScheduler() {
	s, err := hyrise.NewShardedTable("orders", hyrise.Schema{
		{Name: "customer", Type: hyrise.Uint64},
		{Name: "amount", Type: hyrise.Uint32},
	}, "customer", 4)
	if err != nil {
		log.Fatal(err)
	}
	insert := func(from, n int) {
		for i := from; i < from+n; i++ {
			if _, err := s.Insert([]any{uint64(i % 500), uint32(1)}); err != nil {
				log.Fatal(err)
			}
		}
	}
	insert(0, 10000)
	if _, err := s.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		log.Fatal(err)
	}

	ms := hyrise.NewScheduler(s, hyrise.SchedulerConfig{Fraction: 0.02, Interval: time.Millisecond})
	if err := ms.Start(); err != nil {
		log.Fatal(err)
	}
	amount, err := hyrise.NumericColumnOf[uint32](s, "amount")
	if err != nil {
		log.Fatal(err)
	}
	// The scan runs while rows arrive and partitions merge: with every
	// amount 1 its sum is the row count, which only grows.
	stop, scanErr := make(chan struct{}), make(chan error, 1)
	go func() {
		last := uint64(0)
		for {
			select {
			case <-stop:
				scanErr <- nil
				return
			default:
			}
			sum := amount.Sum()
			if sum < last || sum > 12000 {
				scanErr <- fmt.Errorf("scan saw sum %d after %d", sum, last)
				return
			}
			last = sum
		}
	}()
	insert(10000, 2000)
	deadline := time.Now().Add(10 * time.Second)
	for ms.Merges() == 0 {
		if time.Now().After(deadline) {
			log.Fatal("no scheduled merge within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-scanErr; err != nil {
		log.Fatal(err)
	}
	ms.Stop()
	if err := ms.LastErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("scheduled merges ran during order entry:", ms.Merges() > 0)

	if err := ms.MergeNow(context.Background()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after MergeNow: main=%d rows, delta=%d rows, sum(amount) = %d\n",
		s.MainRows(), s.DeltaRows(), amount.Sum())
	// Output:
	// scheduled merges ran during order entry: true
	// after MergeNow: main=12000 rows, delta=0 rows, sum(amount) = 12000
}

// Save a 2-shard table with unmerged writes to a snapshot and load it
// back: the shard layout, the row ids, the invalidated versions and the
// main/delta split round-trip as they were.
func ExampleSave() {
	t, err := hyrise.NewShardedTable("sales", hyrise.Schema{
		{Name: "order_id", Type: hyrise.Uint64},
		{Name: "qty", Type: hyrise.Uint32},
	}, "order_id", 2)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := t.Insert([]any{uint64(i), uint32(i % 10)}); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := t.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		log.Fatal(err)
	}
	orders, err := hyrise.ColumnOf[uint64](t, "order_id")
	if err != nil {
		log.Fatal(err)
	}
	row := orders.Lookup(7)[0]
	if _, err := t.Update(row, map[string]any{"qty": uint32(70)}); err != nil {
		log.Fatal(err)
	}
	if err := t.Delete(orders.Lookup(8)[0]); err != nil {
		log.Fatal(err)
	}

	var buf bytes.Buffer
	if err := hyrise.Save(t, &buf); err != nil {
		log.Fatal(err)
	}
	loaded, err := hyrise.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	for _, tb := range []*hyrise.Table{t, loaded} {
		lorders, err := hyrise.ColumnOf[uint64](tb, "order_id")
		if err != nil {
			log.Fatal(err)
		}
		qty, err := hyrise.NumericColumnOf[uint32](tb, "qty")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d shards: %d rows (%d valid), main=%d delta=%d, order 7 at %v, sum(qty) = %d\n",
			len(tb.Partitions()), tb.Rows(), tb.ValidRows(), tb.MainRows(), tb.DeltaRows(),
			lorders.Lookup(7), qty.Sum())
	}
	// Output:
	// 2 shards: 101 rows (99 valid), main=100 delta=1, order 7 at [45], sum(qty) = 505
	// 2 shards: 101 rows (99 valid), main=100 delta=1, order 7 at [45], sum(qty) = 505
}

// updateOrders has writers goroutines share c, each looking up its own
// perWriter orders (keys from 1) and setting their qty to 50 + i%10.  A
// lookup that finds no row, or any failed call, is an error.
func updateOrders(c *client.Client, writers, perWriter int) error {
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := uint64(w*perWriter + i + 1)
				rows, err := c.Lookup("order_id", key)
				if err == nil && len(rows) != 1 {
					err = fmt.Errorf("order %d: %d rows", key, len(rows))
				}
				if err == nil {
					_, err = c.Update(rows[0], map[string]any{"qty": 50 + i%10})
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// metric returns one series of a metrics snapshot, which must hold it.
func metric(samples []client.Metric, name string) uint64 {
	v, ok := client.MetricValue(samples, name)
	if !ok {
		log.Fatalf("metrics snapshot lacks %s", name)
	}
	return uint64(v)
}

// waitReady polls a server's /healthz until it reports ready for the
// epoch: a follower answers 200 only once it has applied min_epoch.
func waitReady(obsURL string, minEpoch uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	url := fmt.Sprintf("%s/healthz?min_epoch=%d", obsURL, minEpoch)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready for epoch %d", obsURL, minEpoch)
		}
		time.Sleep(time.Millisecond)
	}
}
