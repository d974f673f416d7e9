// Package metrics is the runtime observability registry: dependency-free
// atomic counters, fixed-bucket latency histograms and counters or gauges
// read from callbacks at scrape time, collected into a Registry that
// renders the Prometheus text exposition format.
//
// # Hot-path cost
//
// Every collector is a plain struct of atomic.Uint64 cells: an observation
// is one (histograms: three) uncontended atomic adds, no locks, no
// allocations, no time formatting.  Collectors are resolved from the
// Registry once, at wiring time — never per operation — so the instrumented
// fast path carries no map lookups.  All collector methods are nil-safe
// no-ops, so a call site holding an unbound (nil) collector costs one
// predictable nil check.
//
// # Histograms
//
// Histogram buckets have power-of-two bounds: bucket i counts observations
// of at most 2^i units.  ObserveDuration records nanoseconds (bucket index
// via bits.Len64 — O(1), branch-free), and the rendered bounds and sum are
// converted to seconds, the Prometheus base unit.  Reads snapshot the cells
// with atomic loads; the count is derived from the bucket cells themselves,
// so a scrape races with writers by at most the observations that landed
// mid-snapshot and cumulative bucket counts stay internally consistent.
//
// # Naming
//
// Metric names follow hyrise_<subsystem>_<name>[_total|_seconds]; labels
// are fixed at registration (one collector per label combination, resolved
// once).  Registering the same name+labels again returns the existing
// collector.  The one exception is a VecFunc family, whose label values
// are computed at every scrape: it serves label sets that change at run
// time, such as the partitions a reshard adds.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.  The zero value is ready
// to use; all methods are nil-safe no-ops.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the number of histogram cells: bucket i (i <
// histBuckets-1) counts observations v with v <= 2^i, in the unit the
// observer chose (ObserveDuration: nanoseconds, so the spans run from 1ns
// to 2^62ns ≈ 146 years); the last cell is the +Inf overflow.
const histBuckets = 64

// Histogram counts observations in fixed power-of-two buckets.  The zero
// value is ready to use; all methods are nil-safe no-ops.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64 // total of observed values, same unit as buckets
}

// Observe records one observation of v (in the histogram's unit).
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// bits.Len64(v-1) is the smallest i with v <= 2^i (v=0 lands in
	// bucket 0): one instruction, no bound scan.
	var i int
	if v > 1 {
		i = bits.Len64(v - 1)
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a latency in nanoseconds.  Negative durations
// (clock steps) count as zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations, derived from the bucket cells.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the total of observed values in the histogram's unit.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// metricKind selects the rendered TYPE line.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// sample is one registered collector (or callback) with its fixed labels.
type sample struct {
	labels  string // rendered `k="v",...` (no braces), "" for none
	counter *Counter
	hist    *Histogram
	fn      func() float64 // func-backed counter or gauge
	// vec, set only by VecFunc, emits every sample of its family at
	// scrape time, each with its value of the label key.
	vec func(emit func(value string, v float64))
	key string
}

// family groups the samples of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	samples []*sample
}

// Registry holds registered collectors and renders them.  Registration
// takes a lock; reading a registered collector never does.  Safe for
// concurrent use.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string // registration order, for stable output
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels turns alternating key,value pairs into `k="v",k2="v2"`.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: labels must be alternating key,value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return b.String()
}

// register resolves (or creates) the family and the sample slot for
// name+labels.  A name registered under two different kinds panics: that
// is a wiring bug, not a runtime condition.
func (r *Registry) register(name, help string, kind metricKind, labels []string) *sample {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s re-registered as a different kind", name))
	}
	if f.help == "" {
		f.help = help
	}
	for _, s := range f.samples {
		if s.labels == ls {
			return s
		}
	}
	s := &sample{labels: ls}
	f.samples = append(f.samples, s)
	return s
}

// Counter registers (or returns) the counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.register(name, help, kindCounter, labels)
	if s.counter == nil && s.fn == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time (for cumulative counts already maintained elsewhere).  fn must be
// monotonic for the rendered type to be honest.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindCounter, labels).fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, kindGauge, labels).fn = fn
}

// VecFunc registers a family whose label values are computed at scrape
// time: fn calls emit once per sample, with that sample's value of the one
// label key.  It is for label sets that change while the server runs,
// which fixed registration cannot follow.  A name ending in _total is a
// counter family (each sample must be monotonic), any other a gauge family.
func (r *Registry) VecFunc(name, help, key string, fn func(emit func(value string, v float64))) {
	kind := kindGauge
	if strings.HasSuffix(name, "_total") {
		kind = kindCounter
	}
	s := r.register(name, help, kind, nil)
	s.key, s.vec = key, fn
}

// each calls fn with the name and value of every scalar sample s stands
// for: one for a collector or callback, a scrape-time set for a VecFunc.
func (s *sample) each(name string, fn func(name string, v float64)) {
	switch {
	case s.vec != nil:
		s.vec(func(value string, v float64) {
			fn(sampleName(name, renderLabels([]string{s.key, value})), v)
		})
	case s.fn != nil:
		fn(sampleName(name, s.labels), s.fn())
	case s.counter != nil:
		fn(sampleName(name, s.labels), float64(s.counter.Value()))
	}
}

// Histogram registers (or returns) the histogram name{labels}.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	if s.hist == nil {
		s.hist = &Histogram{}
	}
	return s.hist
}

// Sample is one rendered scalar in a Snapshot: histogram families
// contribute their _count and _sum (in seconds) rather than every bucket.
type Sample struct {
	// Name is the full sample name including rendered labels, e.g.
	// `hyrise_server_requests_total{op="lookup"}`.
	Name  string
	Value float64
}

// Snapshot reads every registered collector once and returns the flat
// scalar samples, in registration order.  Histograms contribute
// name_count{labels} and name_sum{labels} (seconds); bucket cells are
// exposition-only.  The wire op OpMetrics ships exactly this.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()
	var out []Sample
	for _, f := range fams {
		for _, s := range f.samples {
			if f.kind == kindHistogram {
				out = append(out,
					Sample{sampleName(f.name+"_count", s.labels), float64(s.hist.Count())},
					Sample{sampleName(f.name+"_sum", s.labels), float64(s.hist.Sum()) / 1e9})
				continue
			}
			s.each(f.name, func(name string, v float64) {
				out = append(out, Sample{name, v})
			})
		}
	}
	return out
}

func sampleName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// WritePrometheus renders every registered collector in the Prometheus
// text exposition format (version 0.0.4): one HELP/TYPE header per family,
// samples sorted by label set (a VecFunc family's in the order it emits
// them), histograms as cumulative le-bounded buckets
// (bounds in seconds) plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n", f.name)
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", f.name)
		case kindHistogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", f.name)
		}
		samples := append([]*sample(nil), f.samples...)
		sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
		for _, s := range samples {
			if f.kind == kindHistogram {
				renderHistogram(&b, f.name, s)
				continue
			}
			s.each(f.name, func(name string, v float64) {
				fmt.Fprintf(&b, "%s %s\n", name, formatFloat(v))
			})
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// renderHistogram writes the cumulative bucket series of one histogram.
// Empty leading and trailing buckets are skipped (the cumulative counts
// they would carry are implied by the next rendered bound and +Inf), so a
// latency histogram renders ~10 lines, not 64.
func renderHistogram(b *strings.Builder, name string, s *sample) {
	var cells [histBuckets]uint64
	var total uint64
	for i := range cells {
		cells[i] = s.hist.buckets[i].Load()
		total += cells[i]
	}
	lo, hi := 0, histBuckets-1
	for lo < hi && cells[lo] == 0 {
		lo++
	}
	for hi > lo && cells[hi] == 0 {
		hi--
	}
	var cum uint64
	for i := 0; i <= hi; i++ {
		cum += cells[i]
		if i < lo {
			continue
		}
		// Bound 2^i nanoseconds, rendered in seconds.
		le := math.Ldexp(1, i) / 1e9
		writeBucket(b, name, s.labels, formatFloat(le), cum)
	}
	writeBucket(b, name, s.labels, "+Inf", total)
	fmt.Fprintf(b, "%s %s\n", sampleName(name+"_sum", s.labels),
		formatFloat(float64(s.hist.sum.Load())/1e9))
	fmt.Fprintf(b, "%s %d\n", sampleName(name+"_count", s.labels), total)
}

func writeBucket(b *strings.Builder, name, labels, le string, cum uint64) {
	if labels == "" {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
	} else {
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
	}
}

// formatFloat renders a float the way Prometheus expects: integral values
// without an exponent, everything else in shortest-round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Handler returns an http.Handler serving the exposition text (the
// /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
