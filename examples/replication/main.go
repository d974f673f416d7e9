// Command replication demonstrates op-log replication in one process: a
// replicating primary serves a 4-shard store, two followers bootstrap
// from its snapshot stream and apply its live ops, and a pooled client
// with Followers configured routes pinned-snapshot reads to them — exact
// at the snapshot's epoch no matter which server answers — while writers
// keep churning the primary.  The same wiring runs as separate daemons:
// hyrised -replicate for the primary, hyrised -follow for each follower.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"hyrise"
	"hyrise/client"
)

// metric returns one series of a metrics snapshot, which must hold it.
func metric(samples []client.Metric, name string) uint64 {
	v, ok := client.MetricValue(samples, name)
	if !ok {
		log.Fatalf("metrics snapshot lacks %s", name)
	}
	return uint64(v)
}

// waitReady polls a server's /healthz until it reports ready for the
// epoch (a follower answers 200 only once it has applied min_epoch), so
// topology convergence needs no fixed sleeps.
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

func main() {
	// Primary: a sharded store with an op log attached to its write path,
	// served over TCP.
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
	fmt.Printf("primary %q on %s\n", st.Name(), paddr)

	// Two followers: each bootstraps over the wire from the primary's
	// snapshot stream, then applies its op stream; each is served as a
	// read-only replica on its own port, with its observability endpoint
	// (metrics + healthz) on another.
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
		// A follower is ready as soon as it has a primary heartbeat; no
		// startup sleep needed.
		if err := waitReady(fobs[i], 0); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("follower %d on %s (bootstrapped at epoch %d)\n",
			i, fl.Addr(), rep.AppliedEpoch())
	}

	// A routed client: snapshot reads go to any follower that has applied
	// the snapshot's epoch, latest reads to any follower lagging at most
	// MaxStaleness epochs; everything else (and every failure) falls back
	// to the primary.
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

	// Pin a snapshot and let writers churn underneath.
	snap, err := c.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	epoch, _ := c.SnapshotEpoch(snap)
	pinned, err := c.SumAt(snap, "qty")
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := uint64(w*200 + i + 1)
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

	// Routed snapshot reads while the churn runs: the answer is frozen at
	// the pinned epoch whichever server serves it.
	for i := 0; i < 20; i++ {
		got, err := c.SumAt(snap, "qty")
		if err != nil {
			log.Fatal(err)
		}
		if got != pinned {
			log.Fatalf("snapshot read moved: %d then %d", pinned, got)
		}
	}
	wg.Wait()
	fmt.Printf("pinned sum %d stayed frozen at epoch %d through 800 updates\n", pinned, epoch)

	// Lag and role are observable per server: the role from the hello
	// exchange, every number from the server's metrics snapshot.
	for i, addr := range faddrs {
		fc, err := client.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		samples, err := fc.Metrics()
		fc.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("follower %d: role=%s applied=%d lag=%d\n", i, fc.Role(),
			metric(samples, "hyrise_replica_applied_epoch"), metric(samples, "hyrise_replica_lag_epochs"))
	}
	samples, err := c.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary: %d follower(s), op log holds %d ops\n",
		metric(samples, "hyrise_oplog_subscribers"), metric(samples, "hyrise_oplog_entries"))

	// Quiesce, converge, and prove the followers are exact: a fresh
	// snapshot's epoch is applied by both, and the routed aggregate equals
	// the primary's.
	if err := c.Release(snap); err != nil {
		log.Fatal(err)
	}
	snap2, err := c.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	e2, _ := c.SnapshotEpoch(snap2)
	for i, obs := range fobs {
		// /healthz?min_epoch answers 200 only once the follower has
		// applied the epoch — readiness, not a fixed delay.
		if err := waitReady(obs, e2); err != nil {
			log.Fatal(err)
		}
		// And the follower's own metrics snapshot agrees, asserted from
		// the client side via the OpMetrics wire op.
		fc, err := client.Dial(faddrs[i])
		if err != nil {
			log.Fatal(err)
		}
		samples, err := fc.Metrics()
		fc.Close()
		if err != nil {
			log.Fatal(err)
		}
		applied := metric(samples, "hyrise_replica_applied_epoch")
		if applied < e2 {
			log.Fatalf("follower %d metrics: applied epoch %d, want >= %d", i, applied, e2)
		}
		fmt.Printf("follower %d: applied_epoch=%d lag=%d (via client.Metrics)\n",
			i, applied, metric(samples, "hyrise_replica_lag_epochs"))
	}
	final, err := c.SumAt(snap2, "qty")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("followers converged to epoch %d; final sum %d\n", e2, final)
	c.Release(snap2)
	fmt.Println("replication demo done")
}
