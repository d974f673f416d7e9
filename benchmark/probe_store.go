package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hyrise"
)

// salesStore creates an empty in-process sales store of the given
// topology, indexed like `hyrised -index order_id`.
func salesStore(shards int) (hyrise.Store, error) {
	var schema hyrise.Schema
	for _, field := range strings.Split(salesSchema, ",") {
		name, typ, _ := strings.Cut(field, ":")
		ct := map[string]hyrise.Type{"uint32": hyrise.Uint32, "uint64": hyrise.Uint64, "string": hyrise.String}[typ]
		schema = append(schema, hyrise.ColumnDef{Name: name, Type: ct})
	}
	var st hyrise.Store
	var err error
	if shards > 1 {
		st, err = hyrise.NewShardedTable("sales", schema, "order_id", shards)
	} else {
		st, err = hyrise.NewTable("sales", schema)
	}
	if err != nil {
		return nil, err
	}
	return st, st.CreateIndex("order_id")
}

// storeReplay is what replaying a workload's op stream directly against
// an in-process store measured: mean time per op kind with no client,
// wire or server in the way.
type storeReplay struct {
	st        hyrise.Store
	ns        [numKinds]float64 // mean per op; 0 for kinds the workload never issues
	attempted int64
	failed    int64
}

const replayMaxOps = 100_000

// probeStoreReplay builds a store with the run's data and topology and
// replays each connection's stepper against it, one after the other.
// The steppers verify answers here exactly as they do over the wire.
func probeStoreReplay(cfg config, def *servedDef, d *dataset, shards int, tr *tracer, parent int64) (*storeReplay, error) {
	st, err := salesStore(shards)
	if err != nil {
		return nil, err
	}
	local, err := newLocalDB(st)
	if err != nil {
		return nil, err
	}
	env := &servedEnv{d: d}
	workers := make([]*worker, def.conns)
	for conn := range workers {
		workers[conn] = newWorker(env, def, conn, local, cfg.seed)
		if err := workers[conn].preload(); err != nil {
			return nil, fmt.Errorf("replay preload: %w", err)
		}
	}
	if _, err := st.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		return nil, fmt.Errorf("replay merge: %w", err)
	}

	rp := &storeReplay{st: st}
	var total [numKinds]int64
	var count [numKinds]int64
	for _, w := range workers {
		tr.timed("probe.store_replay.conn", parent, func(int64) {
			start := time.Now()
			for ops := 0; ops < replayMaxOps && time.Since(start) < cfg.size.replay; ops++ {
				t0 := time.Now()
				res := w.step()
				total[res.kind] += int64(time.Since(t0))
				count[res.kind]++
				rp.attempted++
				if res.failed {
					rp.failed++
				}
			}
		})
	}
	for k := range rp.ns {
		if count[k] > 0 {
			rp.ns[k] = float64(total[k]) / float64(count[k])
		}
	}
	return rp, nil
}

// probeMerge tops the replayed flat store's delta up to 5% of its main
// with fresh keys and merges, for a merge report of this workload's data.
func probeMerge(st hyrise.Store, d *dataset) (hyrise.MergeReport, error) {
	want := st.MainRows()/20 - st.DeltaRows()
	for i := 0; i < want; i += 1000 {
		rows := make([][]any, 0, 1000)
		for j := i; j < min(i+1000, want); j++ {
			rows = append(rows, d.row(1<<40+uint64(j), 0).values())
		}
		if _, err := st.InsertRows(rows); err != nil {
			return hyrise.MergeReport{}, err
		}
	}
	return st.RequestMerge(context.Background(), hyrise.MergeOptions{})
}
