package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/client"
)

// nSlices cuts the timed window; a rate metric is the median over them.
const nSlices = 10

// sizing fixes the scale of every workload.  The numbers are the same on
// every commit; only the smoke test shrinks them.
type sizing struct {
	pointRows    int
	olapRows     int
	ingestRows   int
	embeddedRows int
	warmup       time.Duration
	setups       int           // set-ups per untraced run; setup_s is their median
	membenchBuf  int           // bytes per thread the bandwidth calibration streams over
	replay       time.Duration // store-direct replay time per connection and topology
}

var fullSize = sizing{
	pointRows:    300_000,
	olapRows:     400_000,
	ingestRows:   200_000,
	embeddedRows: 300_000,
	warmup:       1500 * time.Millisecond,
	setups:       3,
	membenchBuf:  64 << 20,
	replay:       400 * time.Millisecond,
}

// config is one run's input.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string // scratch directory: hyrised binary, logs, span files
	start   startTarget
	size    sizing
	// corruptOracle makes the final check compare against a wrong oracle;
	// the smoke test uses it to prove a mismatch fails the run.
	corruptOracle bool
}

type opClass uint8

const (
	clsRead opClass = iota
	clsWrite
	clsOther // issued and verified, but in neither latency class
)

// opResult describes one client call a stepper made.
type opResult struct {
	kind    opKind
	class   opClass
	rows    int // rows written
	results int // rows a query returned
	failed  bool
}

type sample struct {
	ns      int64
	rows    int32
	results int32
	slice   int8
	kind    opKind
	class   opClass
}

// servedDef describes a workload that runs against a served store.
type servedDef struct {
	name   string
	shards int
	conns  int
	rows   func(sizing) int
	// stepper returns the closed-loop body of one connection: each call
	// issues exactly one operation and verifies its answer.
	stepper func(env *servedEnv, w *worker) func() opResult
	// countsOps, when set, picks the connections whose ops count toward
	// ops_per_s; nil counts all.
	countsOps func(conn int) bool
}

// servedEnv is what the connections of one run share.
type servedEnv struct {
	d        *dataset
	inserted atomic.Int64 // rows inserted since the preload, all connections
	acked    atomic.Int64 // ingest_merge: keys connection 0 has had acknowledged
}

// worker is one connection: its database handle, the oracle for the keys
// it owns, and what it measured.
type worker struct {
	db        db
	o         *oracle
	env       *servedEnv
	rng       *rand.Rand
	countsOps bool
	step      func() opResult
	samples   []sample
	spans     []span
	attempted int64
	failed    int64
}

func newWorker(env *servedEnv, def *servedDef, conn int, d db, seed int64) *worker {
	w := &worker{
		db:        d,
		env:       env,
		o:         newOracle(env.d, conn, def.conns),
		rng:       rand.New(rand.NewSource(seed*1000 + int64(conn))),
		countsOps: def.countsOps == nil || def.countsOps(conn),
	}
	w.step = def.stepper(env, w)
	return w
}

// preload inserts the preloaded keys this worker owns.
func (w *worker) preload() error {
	const batch = 4096
	for from := 0; ; from += batch {
		var rows []salesRow
		for i := from; i < from+batch; i++ {
			key := i*w.o.conns + w.o.conn
			if key >= w.o.d.n {
				break
			}
			rows = append(rows, w.o.d.row(uint64(key), 0))
		}
		if len(rows) == 0 {
			return nil
		}
		ids, err := w.db.InsertBatch(rowValues(rows))
		if err != nil {
			return err
		}
		w.o.inserted(true, rows, ids)
	}
}

func rowValues(rows []salesRow) [][]any {
	vals := make([][]any, len(rows))
	for i, r := range rows {
		vals[i] = r.values()
	}
	return vals
}

// lookupOwn looks one owned key up by order_id: a live key must answer
// exactly its current row id, a deleted one nothing.
func (w *worker) lookupOwn() opResult {
	res := opResult{kind: kLookup, class: clsRead}
	key, st := w.o.at(w.rng.Intn(w.o.count()))
	ids, err := w.db.Lookup(0, "order_id", key)
	switch {
	case err != nil:
		res.failed = true
	case st.live:
		res.failed = len(ids) != 1 || ids[0] != st.id
	default:
		res.failed = len(ids) != 0
	}
	return res
}

// insertBatch inserts the next n keys this worker owns, as one Insert
// when kind is kInsert.
func (w *worker) insertBatch(kind opKind, n int) opResult {
	res := opResult{kind: kind, class: clsWrite, rows: n}
	rows := w.o.nextInsert(n)
	var ids []int
	var err error
	if kind == kInsert {
		var id int
		id, err = w.db.Insert(rows[0].values())
		ids = []int{id}
	} else {
		ids, err = w.db.InsertBatch(rowValues(rows))
	}
	if err != nil || len(ids) != n {
		res.failed = true
		return res
	}
	w.o.inserted(false, rows, ids)
	w.env.inserted.Add(int64(n))
	return res
}

// updateOwn writes the next version of a live owned row.
func (w *worker) updateOwn() opResult {
	res := opResult{kind: kUpdate, class: clsWrite, rows: 1}
	key, st, ok := w.o.liveFrom(w.rng.Intn(w.o.count()))
	if !ok {
		res.failed = true
		return res
	}
	next := w.o.d.row(key, st.ver+1)
	id, err := w.db.Update(st.id, map[string]any{"amount": next.amount, "status": next.status})
	if err != nil {
		res.failed = true
		return res
	}
	st.ver++
	st.id = id
	return res
}

// servedRun is one set-up store with its connections.
type servedRun struct {
	def     *servedDef
	env     *servedEnv
	tgt     target
	clients []*client.Client // one per worker, then the control connection
	ctl     *client.Client
	workers []*worker
}

func (r *servedRun) close() {
	for _, c := range r.clients {
		c.Close()
	}
	if r.tgt != nil {
		r.tgt.Stop()
	}
}

// setupServed starts a store and brings it to the state the window
// begins in: preloaded by the connections that will own the keys,
// merged, indexed (hyrised -index builds the index at start and every
// merge maintains it) and touched once by every connection.
func setupServed(cfg config, def *servedDef, d *dataset) (*servedRun, error) {
	tgt, err := cfg.start(def.shards)
	if err != nil {
		return nil, err
	}
	r := &servedRun{def: def, env: &servedEnv{d: d}, tgt: tgt}
	for conn := 0; conn <= def.conns; conn++ {
		c, err := client.DialOptions(tgt.Addr(), client.Options{Conns: 1})
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
		if conn < def.conns {
			r.workers = append(r.workers, newWorker(r.env, def, conn, remoteDB{c}, cfg.seed))
		}
	}
	r.ctl = r.clients[def.conns]

	errs := make([]error, len(r.workers))
	var wg sync.WaitGroup
	for i, w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.preload()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		r.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := mergeAll(r.ctl); err != nil {
		r.close()
		return nil, err
	}
	for _, w := range r.workers {
		for i := 0; i < 100; i++ {
			if res := w.lookupOwn(); res.failed {
				r.close()
				return nil, errors.New("warm-up lookup returned a wrong answer")
			}
		}
	}
	return r, nil
}

// mergeAll folds every delta into its main, waiting out a merge the
// scheduler may have running.
func mergeAll(c *client.Client) error {
	for try := 0; ; try++ {
		_, err := c.Merge(client.MergeOptions{})
		if err == nil {
			st, err := c.Stats()
			if err != nil {
				return err
			}
			if st.DeltaRows == 0 {
				return nil
			}
		} else if !errors.Is(err, client.ErrMergeBusy) {
			return fmt.Errorf("merge: %w", err)
		}
		if try > 1000 {
			return errors.New("merge: deltas never emptied")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// window is the timing of one measured run: a warm-up, then nSlices
// equal slices.  In a traced run half the slices are traced (see
// tracedTurn) and the ratio of the two halves is the tracing overhead.
type window struct {
	start  time.Time
	warmup time.Duration
	slice  time.Duration
	traced bool
}

func (w window) sliceOf(t time.Time) int {
	el := t.Sub(w.start) - w.warmup
	if el < 0 {
		return -1
	}
	return int(el / w.slice)
}

func (w window) sliceStart(i int) time.Time {
	return w.start.Add(w.warmup + time.Duration(i)*w.slice)
}

func (w window) tracedSlice(i int) bool { return w.traced && tracedTurn(i) }

var clientSpanNames = func() (names [numKinds]string) {
	for k := range names {
		names[k] = "client." + kindNames[k]
	}
	return names
}()

// run is the closed loop of one connection: the next op is issued when
// the previous one has been answered and verified.
func (w *worker) run(win window, tr *tracer, conn int64, sliceSpans []int64) {
	var req int64
	for {
		t0 := time.Now()
		sl := win.sliceOf(t0)
		if sl >= nSlices {
			return
		}
		res := w.step()
		t1 := time.Now()
		req++
		w.attempted++
		if res.failed {
			w.failed++
		}
		if sl < 0 {
			continue
		}
		w.samples = append(w.samples, sample{
			ns: int64(t1.Sub(t0)), rows: int32(res.rows), results: int32(res.results),
			slice: int8(sl), kind: res.kind, class: res.class,
		})
		if win.tracedSlice(sl) {
			w.spans = append(w.spans, span{
				Parent: sliceSpans[sl], Req: conn<<32 | req,
				Name: clientSpanNames[res.kind], Start: tr.since(t0), End: tr.since(t1),
			})
		}
	}
}

// serverSample is one Client.Metrics snapshot by full series name.
type serverSample map[string]float64

func fetchMetrics(c *client.Client) (serverSample, error) {
	ms, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	s := make(serverSample, len(ms))
	for _, m := range ms {
		s[m.Name] = m.Value
	}
	return s, nil
}

// serverTrace is what the server's own metrics say about the traced
// slices: counter deltas summed over them, and gauges.
type serverTrace struct {
	delta   serverSample
	last    serverSample
	maxFill float64
}

const fillSampleEvery = 250 * time.Millisecond

// sampleServer follows the window on the control connection.  In each
// traced slice it reads the server's metrics at the start, every
// fillSampleEvery, and at the end; outside them it only sleeps, so the
// sampling is part of the tracing overhead that is measured.
func (r *servedRun) sampleServer(win window, tr *tracer, parent int64) (*serverTrace, error) {
	st := &serverTrace{delta: serverSample{}}
	for i := 0; i < nSlices; i++ {
		if !win.tracedSlice(i) {
			continue
		}
		time.Sleep(time.Until(win.sliceStart(i)))
		end := win.sliceStart(i + 1)
		var first serverSample
		for {
			t0 := time.Now()
			s, err := fetchMetrics(r.ctl)
			if err != nil {
				return nil, fmt.Errorf("server metrics: %w", err)
			}
			tr.record("client.metrics", parent, t0, time.Now())
			if first == nil {
				first = s
			}
			st.last = s
			st.maxFill = max(st.maxFill, s["hyrise_store_delta_fill_fraction"])
			if !time.Now().Before(end) {
				break
			}
			time.Sleep(min(fillSampleEvery, time.Until(end)))
		}
		for name, v := range st.last {
			st.delta[name] += v - first[name]
		}
	}
	return st, nil
}

// report is the result of one run of one workload.
type report struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Env       envInfo   `json:"env"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	FailRatio float64   `json:"fail_ratio"`
	Metrics   metricSet `json:"metrics"`
	// Latency holds more percentiles of the read and write classes than
	// the metrics name.
	Latency map[string]latencySummary `json:"latency,omitempty"`
	// SelfTimes is, per span name of a traced run, the time those spans
	// spent themselves (duration minus what their children cover).
	SelfTimes map[string]selfTime `json:"self_times,omitempty"`
	// Notes carry what a number cannot: which percentile a tail is, what
	// the unattributed remainder consists of, where spans were written.
	Notes []string `json:"notes,omitempty"`
}

// runServed measures one served workload.
func runServed(ctx context.Context, cfg config, def *servedDef) (*report, error) {
	d := newDataset(cfg.seed, def.rows(cfg.size))
	rep := &report{Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Metrics: metricSet{}}

	// Set up several times and report the median; the last store set up
	// is the one measured.  A traced run reports no setup_s and sets up once.
	setups := cfg.size.setups
	if cfg.traced {
		setups = 1
	}
	tr := newTracer()
	var bw bandwidth
	if cfg.traced {
		tr.timed("probe.membench", 0, func(int64) { bw = probeBandwidth(rep.Metrics, cfg.size.membenchBuf) })
	}
	var run *servedRun
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if run != nil {
			run.close()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if run, err = setupServed(cfg, def, d); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer run.close()

	win := window{
		start:  time.Now(),
		warmup: cfg.size.warmup,
		slice:  time.Duration(cfg.seconds * float64(time.Second) / nSlices),
		traced: cfg.traced,
	}
	root := tr.id()
	sliceSpans := make([][]int64, len(run.workers))
	connSpans := make([]int64, len(run.workers))
	var wg sync.WaitGroup
	for i, w := range run.workers {
		connSpans[i] = tr.id()
		sliceSpans[i] = make([]int64, nSlices)
		for s := range sliceSpans[i] {
			sliceSpans[i][s] = tr.id()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(win, tr, int64(i), sliceSpans[i])
		}()
	}
	var srv *serverTrace
	if cfg.traced {
		var err error
		if srv, err = run.sampleServer(win, tr, root); err != nil {
			wg.Wait()
			return nil, err
		}
	}
	wg.Wait()
	end := time.Now()

	// Spans of the window: a root, one span per connection, one per
	// traced slice of a connection, and under those the client calls.
	if cfg.traced {
		tr.add([]span{{ID: root, Name: "window", Start: tr.since(win.start), End: tr.since(end)}})
		for i, w := range run.workers {
			tr.add([]span{{ID: connSpans[i], Parent: root, Name: "conn", Start: tr.since(win.start), End: tr.since(end)}})
			for s := 0; s < nSlices; s++ {
				if win.tracedSlice(s) {
					tr.add([]span{{ID: sliceSpans[i][s], Parent: connSpans[i], Name: "conn.traced_slice",
						Start: tr.since(win.sliceStart(s)), End: tr.since(win.sliceStart(s + 1))}})
				}
			}
			tr.add(w.spans)
		}
	}

	// Correctness: per-op checks already counted, now the end state.
	for _, w := range run.workers {
		rep.Attempted += w.attempted
		rep.Failed += w.failed
	}
	att, failed, err := finalCheck(run, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: final check: %w", def.name, err)
	}
	rep.Attempted += att
	rep.Failed += failed
	rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)

	if cfg.traced {
		if err := servedTracedMetrics(cfg, run, rep, win, tr, srv, bw); err != nil {
			return nil, err
		}
		return rep, nil
	}

	rep.Metrics.putSamples("setup_s", setupTimes)
	ops, rows := sliceRates(run.workers, win, func(int) bool { return true })
	rep.Metrics.putSamples("ops_per_s", ops)
	rep.Metrics.putSamples("write_rows_per_s", rows)
	reads, writes := latencies(run.workers)
	putLatency(rep, "read", reads)
	putLatency(rep, "write", writes)

	// Space: after folding the deltas, so the number does not depend on
	// where in a merge cycle the window happened to end.
	if err := mergeAll(run.ctl); err != nil {
		return nil, err
	}
	st, err := run.ctl.Stats()
	if err != nil {
		return nil, err
	}
	rep.Metrics.put("bytes_per_row", float64(st.SizeBytes)/float64(st.ValidRows))
	// Peak memory per row rather than in all: the window is time-bounded,
	// so a faster store holds more rows at the end.
	rep.Metrics.put("rss_bytes_per_row", run.tgt.PeakRSS()/float64(st.ValidRows))
	return rep, nil
}

// sliceRates returns, for every slice that keep admits, the ops per
// second of the connections that count and the rows written per second
// by all connections.
func sliceRates(workers []*worker, win window, keep func(slice int) bool) (ops, rows []float64) {
	var nOps, nRows [nSlices]float64
	for _, w := range workers {
		for _, s := range w.samples {
			if w.countsOps {
				nOps[s.slice]++
			}
			nRows[s.slice] += float64(s.rows)
		}
	}
	for i := 0; i < nSlices; i++ {
		if keep(i) {
			ops = append(ops, nOps[i]/win.slice.Seconds())
			rows = append(rows, nRows[i]/win.slice.Seconds())
		}
	}
	return ops, rows
}

// latencies summarizes read and write latency over all ops of the window.
func latencies(workers []*worker) (reads, writes latencySummary) {
	var r, w []int64
	for _, wk := range workers {
		for _, s := range wk.samples {
			switch s.class {
			case clsRead:
				r = append(r, s.ns)
			case clsWrite:
				w = append(w, s.ns)
			}
		}
	}
	return summarize(r), summarize(w)
}

// putLatency reports a class's end-to-end latencies, p50 and p95, and
// keeps the whole summary in the report.
func putLatency(rep *report, class string, s latencySummary) {
	if rep.Latency == nil {
		rep.Latency = map[string]latencySummary{}
	}
	rep.Latency[class] = s
	rep.Metrics.putQ(class+"_p50_us", s.P50/1e3, 0, 0, s.N)
	rep.Metrics.putQ(class+"_p95_us", s.P95/1e3, 0, 0, s.N)
}

// putTail reports a class's tail as a per-layer metric of a traced run.
func putTail(rep *report, class string, s latencySummary) {
	rep.Metrics.putQ("client."+class+"_p99_us", s.Tail/1e3, 0, 0, s.N)
	if s.N > 0 && s.TailPct != 99 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("client.%s_p99_us is p%.2f: %d samples leave fewer than ten beyond p99",
			class, s.TailPct, s.N))
	}
}

const finalSamples = 1000

// finalCheck compares the store's end state with the oracles: valid
// rows, Sum(qty), and sampled keys by Lookup and Row.  It returns the
// checks made and failed.
func finalCheck(run *servedRun, cfg config) (attempted, failed int64, err error) {
	var valid int
	var sumQ uint64
	for _, w := range run.workers {
		valid += w.o.valid
		sumQ += w.o.sumQ
	}
	if cfg.corruptOracle {
		sumQ++
	}
	check := func(ok bool) {
		attempted++
		if !ok {
			failed++
		}
	}
	n, err := run.ctl.ValidRows()
	if err != nil {
		return 0, 0, err
	}
	check(n == valid)
	s, err := run.ctl.Sum("qty")
	if err != nil {
		return 0, 0, err
	}
	check(s == sumQ)

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	for i := 0; i < finalSamples; i++ {
		o := run.workers[rng.Intn(len(run.workers))].o
		key, st := o.at(rng.Intn(o.count()))
		ids, err := run.ctl.Lookup("order_id", key)
		if err != nil {
			return 0, 0, err
		}
		if !st.live {
			check(len(ids) == 0)
			continue
		}
		if len(ids) != 1 || ids[0] != st.id {
			check(false)
			continue
		}
		vals, err := run.ctl.Row(st.id)
		check(err == nil && rowEqual(vals, o.d.row(key, st.ver)))
	}
	return attempted, failed, nil
}
