package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"hyrise"
	"hyrise/internal/workload"
)

// merge_embedded is the paper's own experiment, in-process with no wire:
// a flat 12-column table whose distinct-value counts follow Figure 4,
// driven through cycles of {fill the delta to 5% of the main, half
// inserts and half updates of live rows (T_U); merge with every thread,
// garbage collection on (T_M)}.  It isolates core/dict/bitpack/csbtree;
// client, wire and server do nothing here.
const (
	embeddedColumns  = 12
	embeddedFraction = 0.05
	embeddedReads    = 100 // unindexed point reads after each merge
	embeddedMinCycle = 3
)

// embeddedDomains spreads the columns over Figure 4's financial-
// accounting buckets by their shares and spaces the distinct-value
// counts log-uniformly inside each bucket.  The counts are fixed, not
// drawn per seed, so that every seed merges the same shape of table.
// Column 0 is the unique key and takes the top slot of the largest bucket.
func embeddedDomains(rows int) []uint64 {
	profile := workload.Figure4Profiles()[1]
	counts := make([]int, len(profile.Buckets))
	assigned := 0
	for i, b := range profile.Buckets {
		counts[i] = int(math.Round(b.Share * embeddedColumns))
		assigned += counts[i]
	}
	counts[0] += embeddedColumns - assigned
	var domains []uint64
	for i, b := range profile.Buckets {
		lo, hi := float64(b.MinValues), float64(b.MaxValues)
		for j := 0; j < counts[i]; j++ {
			domains = append(domains, uint64(lo*math.Pow(hi/lo, (float64(j)+0.5)/float64(counts[i]))))
		}
	}
	// Largest first: the key leads, then descending cardinality.
	for i, j := 0, len(domains)-1; i < j; i, j = i+1, j-1 {
		domains[i], domains[j] = domains[j], domains[i]
	}
	domains[0] = 0 // unique
	return domains
}

// embedded is the table under test with its oracle.
type embedded struct {
	seed    uint64
	st      *hyrise.Table
	key     *hyrise.Handle[uint64]
	sumCol  *hyrise.NumericHandle[uint64]
	domains []uint64
	names   []string

	ids  []int    // current row id per key
	vers []uint32 // current version per key
	sum  uint64   // oracle's Sum over column 1
}

func (e *embedded) value(key uint64, col int, ver uint32) uint64 {
	if col == 0 {
		return key
	}
	h := mix64(e.seed ^ mix64(key*embeddedColumns+uint64(col)) + uint64(ver)*0xd1342543de82ef95)
	return h % e.domains[col]
}

func (e *embedded) row(key uint64, ver uint32) []any {
	row := make([]any, embeddedColumns)
	for c := range row {
		row[c] = e.value(key, c, ver)
	}
	return row
}

// setupEmbedded builds the table, loads rows keys and merges them into
// the main partitions.
func setupEmbedded(seed int64, rows int) (*embedded, error) {
	e := &embedded{seed: mix64(uint64(seed)), domains: embeddedDomains(rows)}
	var schema hyrise.Schema
	for c := 0; c < embeddedColumns; c++ {
		e.names = append(e.names, fmt.Sprintf("c%02d", c))
		schema = append(schema, hyrise.ColumnDef{Name: e.names[c], Type: hyrise.Uint64})
	}
	var err error
	if e.st, err = hyrise.NewTable("embedded", schema); err != nil {
		return nil, err
	}
	if e.key, err = hyrise.ColumnOf[uint64](e.st, e.names[0]); err != nil {
		return nil, err
	}
	if e.sumCol, err = hyrise.NumericColumnOf[uint64](e.st, e.names[1]); err != nil {
		return nil, err
	}
	const batch = 4096
	for from := 0; from < rows; from += batch {
		vals := make([][]any, 0, batch)
		for k := from; k < min(from+batch, rows); k++ {
			vals = append(vals, e.row(uint64(k), 0))
			e.sum += e.value(uint64(k), 1, 0)
		}
		ids, err := e.st.InsertRows(vals)
		if err != nil {
			return nil, err
		}
		e.ids = append(e.ids, ids...)
	}
	e.vers = make([]uint32, rows)
	if _, err := e.st.RequestMerge(context.Background(), hyrise.MergeOptions{}); err != nil {
		return nil, err
	}
	return e, nil
}

// embeddedCycle is what one fill-and-merge cycle measured.
type embeddedCycle struct {
	nd     int
	tu     time.Duration // sum of the write calls' durations
	report hyrise.MergeReport
}

// cycle fills the delta to the merge fraction, merges, and reads points
// from the fresh main.  Write and read latencies are appended per call;
// with a tracer the calls are recorded as spans too.
func (e *embedded) cycle(rng *rand.Rand, rep *report, writes, reads *[]int64, tr *tracer, parent int64) (embeddedCycle, error) {
	var c embeddedCycle
	var spans []span
	call := func(name string, lat *[]int64, fn func() bool) {
		t0 := time.Now()
		ok := fn()
		t1 := time.Now()
		*lat = append(*lat, int64(t1.Sub(t0)))
		rep.Attempted++
		if !ok {
			rep.Failed++
		}
		if tr != nil {
			spans = append(spans, span{Parent: parent, Name: name, Start: tr.since(t0), End: tr.since(t1)})
		}
	}

	c.nd = int(embeddedFraction * float64(e.st.MainRows()))
	before := len(*writes)
	for i := 0; i < c.nd; i++ {
		if i%2 == 0 {
			key := uint64(len(e.ids))
			call("table.insert", writes, func() bool {
				id, err := e.st.Insert(e.row(key, 0))
				e.ids = append(e.ids, id)
				return err == nil
			})
			e.vers = append(e.vers, 0)
			e.sum += e.value(key, 1, 0)
			continue
		}
		key := uint64(rng.Intn(len(e.ids)))
		ver := e.vers[key] + 1
		changes := map[string]any{}
		for _, col := range embeddedUpdateCols {
			changes[e.names[col]] = e.value(key, col, ver)
		}
		call("table.update", writes, func() bool {
			id, err := e.st.Update(e.ids[key], changes)
			e.ids[key] = id
			return err == nil
		})
		e.sum += e.value(key, 1, ver) - e.value(key, 1, e.vers[key])
		e.vers[key] = ver
	}
	for _, ns := range (*writes)[before:] {
		c.tu += time.Duration(ns)
	}

	var err error
	t0 := time.Now()
	c.report, err = e.st.RequestMerge(context.Background(), hyrise.MergeOptions{})
	t1 := time.Now()
	if err != nil {
		return c, fmt.Errorf("merge: %w", err)
	}
	if tr != nil {
		// The merge's phases, laid end to end from the report.
		m := tr.record("table.merge", parent, t0, t1)
		at := t0
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"table.merge.freeze", c.report.Freeze}, {"table.merge.run", c.report.MergeRun}, {"table.merge.commit", c.report.Commit}} {
			tr.record(ph.name, m, at, at.Add(ph.d))
			at = at.Add(ph.d)
		}
	}

	for i := 0; i < embeddedReads; i++ {
		key := uint64(rng.Intn(len(e.ids)))
		call("table.lookup", reads, func() bool {
			ids := e.key.Lookup(key)
			return len(ids) == 1 && ids[0] == e.ids[key]
		})
	}
	if tr != nil {
		tr.add(spans)
	}
	return c, nil
}

// embeddedUpdateCols are the columns an update rewrites: one of each
// of Figure 4's cardinality classes.
var embeddedUpdateCols = []int{1, 3, 5}

// expectedRow is the current version of a key as the oracle knows it:
// columns an update rewrites are at the key's version, the others at 0.
func (e *embedded) expectedRow(key uint64) []any {
	row := e.row(key, 0)
	for _, col := range embeddedUpdateCols {
		row[col] = e.value(key, col, e.vers[key])
	}
	return row
}

// finalCheck compares the table's end state with the oracle.
func (e *embedded) finalCheck(rep *report, seed int64, corrupt bool) {
	check := func(ok bool) {
		rep.Attempted++
		if !ok {
			rep.Failed++
		}
	}
	want := e.sum
	if corrupt {
		want++
	}
	check(e.st.ValidRows() == len(e.ids))
	check(e.sumCol.Sum() == want)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < finalSamples; i++ {
		key := uint64(rng.Intn(len(e.ids)))
		ids := e.key.Lookup(key)
		if len(ids) != 1 || ids[0] != e.ids[key] {
			check(false)
			continue
		}
		got, err := e.st.Row(ids[0])
		check(err == nil && reflect.DeepEqual(got, e.expectedRow(key)))
	}
}

// runEmbedded measures merge_embedded.  One untimed cycle warms the
// table up; then whole cycles run until the window is spent.  In a traced
// run half the cycles are traced (see tracedTurn).
func runEmbedded(ctx context.Context, cfg config) (*report, error) {
	rep := &report{Workload: "merge_embedded", Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Metrics: metricSet{}}
	setups := cfg.size.setups
	if cfg.traced {
		setups = 1
	}
	var tr *tracer
	var bw bandwidth
	if cfg.traced {
		tr = newTracer()
		// Zeros first: client, wire, server and shard do nothing here.
		for _, def := range perLayer {
			rep.Metrics.put(def.Name, 0)
		}
		tr.timed("probe.membench", 0, func(int64) { bw = probeBandwidth(rep.Metrics, cfg.size.membenchBuf) })
	}
	var e *embedded
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e = nil // let the previous table go before building the next
		t0 := time.Now()
		var err error
		if e, err = setupEmbedded(cfg.seed, cfg.size.embeddedRows); err != nil {
			return nil, fmt.Errorf("merge_embedded: set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	var writes, reads []int64
	if _, err := e.cycle(rng, rep, &writes, &reads, nil, 0); err != nil {
		return nil, err
	}
	writes, reads = writes[:0], reads[:0]

	var root int64
	if cfg.traced {
		root = tr.id()
	}
	var cycles []embeddedCycle
	var traced []bool
	start := time.Now()
	for i := 0; i < embeddedMinCycle || time.Since(start).Seconds() < cfg.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var c embeddedCycle
		var err error
		traceIt := cfg.traced && tracedTurn(i)
		if traceIt {
			tr.timed("cycle", root, func(id int64) { c, err = e.cycle(rng, rep, &writes, &reads, tr, id) })
		} else {
			c, err = e.cycle(rng, rep, &writes, &reads, nil, 0)
		}
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
		traced = append(traced, traceIt)
	}
	end := time.Now()
	e.finalCheck(rep, cfg.seed, cfg.corruptOracle)
	rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)

	// The paper's §4 update rate, N_D / (T_U + T_M), and the delta's own
	// ingest rate, N_D / T_U, per cycle.
	rate := func(keep func(i int) bool) (update, ingest []float64) {
		for i, c := range cycles {
			if keep(i) {
				update = append(update, float64(c.nd)/(c.tu+c.report.Wall).Seconds())
				ingest = append(ingest, float64(c.nd)/c.tu.Seconds())
			}
		}
		return update, ingest
	}

	if !cfg.traced {
		update, ingest := rate(func(int) bool { return true })
		rep.Metrics.putSamples("setup_s", setupTimes)
		rep.Metrics.putSamples("ops_per_s", update)
		rep.Metrics.putSamples("write_rows_per_s", ingest)
		putLatency(rep, "read", summarize(reads))
		putLatency(rep, "write", summarize(writes))
		st := e.st.StoreStats()
		rep.Metrics.put("bytes_per_row", float64(st.SizeBytes)/float64(st.ValidRows))
		// The driver holds only the table now: resident set after a
		// collection, per row for the same reason as on the served runs.
		debug.FreeOSMemory()
		rep.Metrics.put("rss_bytes_per_row", procStatusBytes(os.Getpid(), "VmRSS")/float64(st.ValidRows))
		runtime.KeepAlive(e) // the table must survive the collection above
		return rep, nil
	}

	ms := rep.Metrics
	tr.add([]span{{ID: root, Name: "window", Start: tr.since(start), End: tr.since(end)}})
	var reports []hyrise.MergeReport
	var tracedSeconds float64
	for i, c := range cycles {
		if traced[i] {
			reports = append(reports, c.report)
			tracedSeconds += (c.tu + c.report.Wall).Seconds()
		}
	}
	phasesOf(reports).put(ms, tracedSeconds)
	putColumnSteps(ms, reports)
	tu, _ := rate(func(i int) bool { return traced[i] })
	pu, _ := rate(func(i int) bool { return !traced[i] })
	tm, _, _ := quartiles(tu)
	pm, _, _ := quartiles(pu)
	ms.put("trace.overhead_ratio", ratio(tm, pm))
	putTail(rep, "read", summarize(reads))
	putTail(rep, "write", summarize(writes))
	self := tr.selfTimes()
	ms.put("table.insert_ns", self["table.insert"].meanNS())
	ms.put("table.update_ns", self["table.update"].meanNS())
	ms.put("table.lookup_ns", self["table.lookup"].meanNS())
	ms.put("table.main_rows", float64(e.st.MainRows()))
	ms.put("table.delta_rows", float64(e.st.DeltaRows()))
	ms.put("sched.max_delta_fill", embeddedFraction)
	// All time observed here is the store's own.
	ms.put("trace.share_store", 1)

	probes := tr.id()
	probeStart := time.Now()
	if err := runSharedProbes(cfg, ms, tr, probes, e.st, reports, bw); err != nil {
		return nil, err
	}
	tr.add([]span{{ID: probes, Name: "probes", Start: tr.since(probeStart), End: tr.since(time.Now())}})
	rep.SelfTimes = self
	return rep, writeSpans(cfg, rep, tr)
}
