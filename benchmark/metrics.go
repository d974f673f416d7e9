package main

import (
	"encoding/json"
	"sort"
)

// metricDef declares one metric of the benchmark.  The tables below are
// the single definition: BENCHMARK.json is printed from them (`spec`
// subcommand), the driver emits exactly these names, and compare reads
// the bounds from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees.  Every workload
// reports every one of them (see README.md for what each means on each
// workload) and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_p95_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"write_p95_us", "us", "lower", 0.25},
	{"write_rows_per_s", "rows/s", "higher", 0.25},
	{"rss_bytes_per_row", "B/row", "lower", 0.25},
	{"bytes_per_row", "B/row", "lower", 0.02},
}

// opKind enumerates the client calls the workloads issue; per-op layer
// metrics exist once per kind.
type opKind uint8

const (
	kLookup opKind = iota
	kRow
	kRange
	kInsert
	kInsertBatch
	kUpdate
	kDelete
	kSum
	kMin
	kMax
	kCountEqual
	kQuery
	kSnapshot
	kValidRows
	numKinds
)

var kindNames = [numKinds]string{
	"lookup", "row", "range", "insert", "insert_batch", "update", "delete",
	"sum", "min", "max", "count_equal", "query", "snapshot", "valid_rows",
}

// serverOps maps a kind to the server opcodes whose busy time it is set
// against; a snapshot refresh is a release plus a capture.
func serverOps(k opKind) []string {
	if k == kSnapshot {
		return []string{"snapshot", "snapshot_release"}
	}
	return []string{kindNames[k]}
}

// perLayer lists the single-layer metrics, `<module>.<name>`.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for k := opKind(0); k < numKinds; k++ {
		out = append(out,
			metricDef{Name: "client.rtt_s." + kindNames[k], Unit: "s", Better: "lower"},
			metricDef{Name: "server.busy_s." + kindNames[k], Unit: "s", Better: "lower"},
			metricDef{Name: "wire.rtt_minus_server_s." + kindNames[k], Unit: "s", Better: "lower"},
		)
	}
	lower := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
	}
	higher := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "higher"})
		}
	}
	lower("us", "client.ping_p50_us", "client.read_p99_us", "client.write_p99_us")
	lower("ns", "wire.frame_encode_ns", "wire.frame_decode_ns")
	lower("count", "wire.frame_allocs", "server.errors")
	higher("count", "server.requests", "server.parallel_requests", "server.pipelined_requests")
	lower("ns", "table.lookup_ns", "table.row_ns", "table.range_ns", "table.insert_ns", "table.update_ns",
		"shard.lookup_ns", "shard.sum_ns", "shard.range_ns", "shard.insert_rows_ns",
		"epoch.snapshot_ns", "delta.insert_ns")
	lower("count", "epoch.pins")
	higher("Mrows/s", "kernel.match_equal_mrows_per_s", "kernel.match_range_mrows_per_s",
		"kernel.filter_visible_mrows_per_s", "kernel.gather_mrows_per_s")
	lower("count", "query.seeds", "query.estimated_rows", "query.actual_rows")
	higher("count", "query.indexed_seeds", "index.reads_indexed")
	lower("ratio", "query.rows_examined_per_result")
	lower("count", "index.reads_scanned")
	higher("ratio", "index.hit_ratio")
	lower("ms", "index.build_ms")
	lower("B", "index.bytes")
	lower("s", "table.merge_freeze_s", "table.merge_run_s", "table.merge_commit_s", "table.merge_wall_s")
	lower("ratio", "table.merge_wall_share")
	higher("count", "core.merges", "core.rows_merged", "core.rows_reclaimed")
	lower("s", "core.step1a_s", "core.step1b_s", "core.step2_s")
	lower("ns", "core.ns_per_tuple")
	higher("Mtuples/s", "core.merge_mtuples_per_s")
	lower("ratio", "sched.max_delta_fill")
	higher("rows", "table.main_rows")
	lower("rows", "table.delta_rows")
	higher("GB/s", "membench.stream_gbps")
	higher("Mops/s", "membench.random_mops")
	lower("s", "model.predicted_merge_s")
	lower("ratio", "model.measured_over_predicted")
	higher("ratio", "core.bandwidth_fraction")
	lower("s", "persist.save_s", "persist.load_s")
	lower("B/row", "persist.bytes_per_row")
	higher("ratio", "trace.overhead_ratio")
	// Shares of client-observed time; the three sum to 1.
	lower("ratio", "trace.share_wire_client", "trace.share_store", "trace.share_server_unattributed")
	return out
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"point_rw", "OLTP point mix on a flat indexed store: per-request client/wire/dispatch overhead dominates, kernel work is negligible"},
	{"olap_scan", "snapshot scans and queries on unindexed columns of a 2-shard store: kernel, query and shard fan-out dominate, the wire does almost nothing"},
	{"ingest_merge", "batch ingest beside point reads while the scheduler merges: lock phases, scheduler and read/write interference show here"},
	{"merge_embedded", "in-process fill-delta/merge cycles on a 12-column table, the paper's own experiment: isolates core/dict/bitpack/csbtree, no wire or server"},
}

// runSeconds is the measured window the driver passes as --seconds.
const runSeconds = 20

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(b, '\n')
}

func metricByName(defs []metricDef, name string) (metricDef, bool) {
	for _, m := range defs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// metric is one measured value in a report.  Q1/Q3/N are set where the
// value is a median over samples (slices, cycles or ops).
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// metricSet collects a run's metrics by name, taking each unit from the
// definition tables so a misspelt name fails loudly.
type metricSet map[string]metric

func (s metricSet) put(name string, value float64) {
	s.putQ(name, value, 0, 0, 0)
}

func (s metricSet) putQ(name string, value, q1, q3 float64, n int) {
	def, ok := metricByName(endToEnd, name)
	if !ok {
		if def, ok = metricByName(perLayer, name); !ok {
			panic("benchmark: undefined metric " + name)
		}
	}
	s[name] = metric{Value: value, Unit: def.Unit, Q1: q1, Q3: q3, N: n}
}

// putSamples stores the median and quartiles of samples.
func (s metricSet) putSamples(name string, samples []float64) {
	med, q1, q3 := quartiles(samples)
	s.putQ(name, med, q1, q3, len(samples))
	m := s[name]
	m.Samples = samples
	s[name] = m
}

func (s metricSet) names() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
