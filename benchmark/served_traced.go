package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"hyrise"
)

const pingSamples = 2000

// sumSeries adds up the samples of one metric family across its labels.
func sumSeries(s serverSample, family string) float64 {
	var total float64
	for name, v := range s {
		if name == family || strings.HasPrefix(name, family+"{") {
			total += v
		}
	}
	return total
}

// servedTracedMetrics turns the traced slices of a run into per-layer
// metrics: client-side spans, the server's own metric deltas over the
// same slices, and in-process probes on inputs from the same seed.
func servedTracedMetrics(cfg config, run *servedRun, rep *report, win window, tr *tracer, srv *serverTrace, bw bandwidth) error {
	ms := rep.Metrics
	tracedSeconds := 0.0
	for i := 0; i < nSlices; i++ {
		if win.tracedSlice(i) {
			tracedSeconds += win.slice.Seconds()
		}
	}

	// Client-observed time per op kind against the server's busy time for
	// the same ops; the difference is everything between the two: client
	// encode/decode, both TCP stacks, frame handling and queueing.
	var rtt, busy [numKinds]float64
	var count [numKinds]float64
	var clientTotal, busyTotal, queryResults float64
	for _, w := range run.workers {
		for _, s := range w.samples {
			if win.tracedSlice(int(s.slice)) {
				rtt[s.kind] += float64(s.ns) / 1e9
				count[s.kind]++
				queryResults += float64(s.results)
			}
		}
	}
	for k := opKind(0); k < numKinds; k++ {
		for _, op := range serverOps(k) {
			busy[k] += srv.delta[`hyrise_server_op_seconds_sum{op="`+op+`"}`]
		}
		ms.put("client.rtt_s."+kindNames[k], rtt[k])
		ms.put("server.busy_s."+kindNames[k], busy[k])
		ms.put("wire.rtt_minus_server_s."+kindNames[k], rtt[k]-busy[k])
		clientTotal += rtt[k]
		busyTotal += busy[k]
	}
	ms.put("server.requests", sumSeries(srv.delta, "hyrise_server_requests_total"))
	ms.put("server.errors", sumSeries(srv.delta, "hyrise_server_errors_total"))
	ms.put("server.parallel_requests", srv.delta["hyrise_server_parallel_requests_total"])
	ms.put("server.pipelined_requests", srv.delta["hyrise_server_pipelined_requests_total"])
	ms.put("epoch.pins", srv.last["hyrise_epoch_pins"])

	ms.put("query.seeds", srv.delta["hyrise_query_seeds_total"])
	ms.put("query.estimated_rows", srv.delta["hyrise_query_estimated_rows_total"])
	ms.put("query.actual_rows", srv.delta["hyrise_query_actual_rows_total"])
	ms.put("query.indexed_seeds", srv.delta["hyrise_query_indexed_seeds_total"])
	ms.put("query.rows_examined_per_result", ratio(srv.delta["hyrise_query_actual_rows_total"], queryResults))
	indexed := srv.delta[`hyrise_index_reads_total{route="indexed"}`]
	scanned := srv.delta[`hyrise_index_reads_total{route="scanned"}`]
	ms.put("index.reads_indexed", indexed)
	ms.put("index.reads_scanned", scanned)
	ms.put("index.hit_ratio", ratio(indexed, indexed+scanned))

	mergePhases{
		merges:        srv.delta["hyrise_merge_total"],
		rowsMerged:    srv.delta["hyrise_merge_rows_merged_total"],
		rowsReclaimed: srv.delta["hyrise_merge_rows_reclaimed_total"],
		freeze:        srv.delta[`hyrise_merge_phase_seconds_sum{phase="freeze"}`],
		run:           srv.delta[`hyrise_merge_phase_seconds_sum{phase="merge"}`],
		commit:        srv.delta[`hyrise_merge_phase_seconds_sum{phase="commit"}`],
		wall:          srv.delta["hyrise_merge_wall_seconds_sum"],
	}.put(ms, tracedSeconds)
	ms.put("sched.max_delta_fill", srv.maxFill)
	ms.put("table.main_rows", srv.last["hyrise_store_main_rows"])
	ms.put("table.delta_rows", srv.last["hyrise_store_delta_rows"])

	idx, err := run.ctl.IndexStats()
	if err != nil {
		return fmt.Errorf("index stats: %w", err)
	}
	var buildMS, idxBytes float64
	for _, s := range idx {
		buildMS += float64(s.LastBuild) / 1e6
		idxBytes += float64(s.SizeBytes)
	}
	ms.put("index.build_ms", buildMS)
	ms.put("index.bytes", idxBytes)

	// Tracing overhead: the traced slices against the untraced ones they
	// alternate with.
	tracedOps, _ := sliceRates(run.workers, win, win.tracedSlice)
	plainOps, _ := sliceRates(run.workers, win, func(i int) bool { return !win.tracedSlice(i) })
	tm, _, _ := quartiles(tracedOps)
	pm, _, _ := quartiles(plainOps)
	ms.put("trace.overhead_ratio", ratio(tm, pm))

	// The floor of client + wire + dispatch: an empty request.
	probes := tr.id()
	probeStart := time.Now()
	pings := make([]int64, pingSamples)
	for i := range pings {
		t0 := time.Now()
		if err := run.ctl.Ping(); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		pings[i] = int64(time.Since(t0))
	}
	tr.record("client.ping_loop", probes, probeStart, time.Now())
	ms.put("client.ping_p50_us", summarize(pings).P50/1e3)
	reads, writes := latencies(run.workers)
	putTail(rep, "read", reads)
	putTail(rep, "write", writes)

	// The same op streams replayed against the bare store, flat and
	// 2-shard; the topology the workload runs on prices its store share.
	flat, err := probeStoreReplay(cfg, run.def, run.env.d, 1, tr, probes)
	if err != nil {
		return err
	}
	sharded, err := probeStoreReplay(cfg, run.def, run.env.d, 2, tr, probes)
	if err != nil {
		return err
	}
	rep.Attempted += flat.attempted + sharded.attempted
	rep.Failed += flat.failed + sharded.failed
	rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)
	ms.put("table.lookup_ns", flat.ns[kLookup])
	ms.put("table.row_ns", flat.ns[kRow])
	ms.put("table.range_ns", flat.ns[kRange])
	ms.put("table.insert_ns", flat.ns[kInsert])
	ms.put("table.update_ns", flat.ns[kUpdate])
	ms.put("shard.lookup_ns", sharded.ns[kLookup])
	ms.put("shard.sum_ns", sharded.ns[kSum])
	ms.put("shard.range_ns", sharded.ns[kRange])
	ms.put("shard.insert_rows_ns", sharded.ns[kInsertBatch])

	own := flat
	if run.def.shards > 1 {
		own = sharded
	}
	var storeTotal float64
	for k := range count {
		storeTotal += count[k] * own.ns[k] / 1e9
	}
	// The three shares sum to 1.  What is left of the server's busy time
	// after the bare store's cost is not attributed further: spans inside
	// internal/server do not exist yet.
	ms.put("trace.share_wire_client", ratio(clientTotal-busyTotal, clientTotal))
	ms.put("trace.share_store", ratio(storeTotal, clientTotal))
	ms.put("trace.share_server_unattributed", ratio(busyTotal-storeTotal, clientTotal))
	rep.Notes = append(rep.Notes,
		"trace.share_server_unattributed is server busy time minus the uncontended store-direct replay of the same ops: "+
			"request decode, dispatch, shard and table lock waits, response encode, and CPU contention with the load generator on the same cores")

	var reports []hyrise.MergeReport
	tr.timed("probe.merge", probes, func(int64) {
		var r hyrise.MergeReport
		if r, err = probeMerge(flat.st, run.env.d); err == nil {
			reports = append(reports, r)
		}
	})
	if err != nil {
		return fmt.Errorf("probe merge: %w", err)
	}
	putColumnSteps(ms, reports)
	if err := runSharedProbes(cfg, ms, tr, probes, flat.st, reports, bw); err != nil {
		return err
	}
	tr.add([]span{{ID: probes, Name: "probes", Start: tr.since(probeStart), End: tr.since(time.Now())}})
	rep.SelfTimes = tr.selfTimes()
	return writeSpans(cfg, rep, tr)
}

// runSharedProbes runs the probes that do not depend on the workload's
// op stream, each under its own span.
func runSharedProbes(cfg config, ms metricSet, tr *tracer, parent int64, st hyrise.Store, reports []hyrise.MergeReport, bw bandwidth) error {
	var err error
	tr.timed("probe.wire", parent, func(int64) { err = probeWire(ms) })
	if err != nil {
		return err
	}
	tr.timed("probe.kernel", parent, func(int64) { probeKernel(ms, cfg.seed) })
	tr.timed("probe.delta", parent, func(int64) { probeDelta(ms, cfg.seed) })
	tr.timed("probe.epoch", parent, func(int64) { probeEpoch(ms, st) })
	tr.timed("probe.model", parent, func(int64) { probeModel(ms, reports, bw) })
	tr.timed("probe.persist", parent, func(int64) { err = probePersist(ms, st) })
	return err
}

// writeSpans stores the run's spans next to the build outputs.
func writeSpans(cfg config, rep *report, tr *tracer) error {
	path := filepath.Join(cfg.dir, "trace-"+rep.Workload+".jsonl")
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("spans written to %s", path))
	return nil
}
