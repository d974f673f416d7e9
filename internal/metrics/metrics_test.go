package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hyrise_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same cell.
	if again := r.Counter("hyrise_test_ops_total", "ops"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
	depth := 2.5
	r.GaugeFunc("hyrise_test_depth", "depth", func() float64 { return depth })
	for _, want := range []float64{2.5, -1} {
		depth = want
		if got := r.Snapshot()[1].Value; got != want {
			t.Fatalf("gauge = %v, want %v", got, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(3)
	h.Observe(7)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil collectors must read zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// v=0 and v=1 land in bucket 0; 2^i lands in bucket i; 2^i+1 in i+1.
	h.Observe(0)
	h.Observe(1)
	if got := h.buckets[0].Load(); got != 2 {
		t.Fatalf("bucket[0] = %d, want 2", got)
	}
	for _, i := range []int{1, 5, 20, 62} {
		var hh Histogram
		hh.Observe(1 << i)
		if got := hh.buckets[i].Load(); got != 1 {
			t.Fatalf("2^%d: bucket[%d] = %d, want 1", i, i, got)
		}
		hh.Observe(1<<i + 1)
		if got := hh.buckets[i+1].Load(); got != 1 {
			t.Fatalf("2^%d+1: bucket[%d] = %d, want 1", i, i+1, got)
		}
	}
	var hh Histogram
	hh.Observe(math.MaxUint64)
	if got := hh.buckets[histBuckets-1].Load(); got != 1 {
		t.Fatalf("max observation must land in the overflow bucket, got %d", got)
	}
}

func TestHistogramSumCount(t *testing.T) {
	var h Histogram
	var want uint64
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
		want += i
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	if h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	h.ObserveDuration(-time.Second) // clock step: counts as zero
	if h.Sum() != want || h.Count() != 1001 {
		t.Fatalf("negative duration must observe as zero")
	}
}

// TestPrometheusExposition checks the rendered text line by line: header
// pairs, sorted label sets, cumulative monotonic buckets ending at +Inf,
// and _count equal to the +Inf bucket.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hyrise_server_requests_total", "requests", "op", "lookup").Add(7)
	r.Counter("hyrise_server_requests_total", "requests", "op", "insert").Add(3)
	r.GaugeFunc("hyrise_server_connections", "live conns", func() float64 { return 2 })
	r.GaugeFunc("hyrise_replica_lag_epochs", "lag", func() float64 { return 4 })
	h := r.Histogram("hyrise_server_op_seconds", "latency", "op", "lookup")
	h.ObserveDuration(100 * time.Nanosecond)
	h.ObserveDuration(3 * time.Microsecond)
	h.ObserveDuration(2 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	for _, want := range []string{
		"# TYPE hyrise_server_requests_total counter",
		`hyrise_server_requests_total{op="insert"} 3`,
		`hyrise_server_requests_total{op="lookup"} 7`,
		"# TYPE hyrise_server_connections gauge",
		"hyrise_server_connections 2",
		"hyrise_replica_lag_epochs 4",
		"# TYPE hyrise_server_op_seconds histogram",
		`hyrise_server_op_seconds_count{op="lookup"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// insert sorts before lookup within the family.
	if strings.Index(text, `op="insert"`) > strings.Index(text, `op="lookup"`) {
		t.Errorf("samples not sorted by label set:\n%s", text)
	}
	assertParseable(t, text)
}

// assertParseable walks exposition text asserting structural validity:
// every non-comment line is `name{labels} value`, histogram buckets are
// cumulative and end with le="+Inf" matching _count.
func assertParseable(t *testing.T, text string) {
	t.Helper()
	var prevCum uint64
	var prevBucketOf string
	infOf := map[string]uint64{}
	countOf := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil && val != "+Inf" {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		switch {
		case strings.HasSuffix(base, "_bucket"):
			cum, _ := strconv.ParseUint(val, 10, 64)
			series := strings.TrimSuffix(base, "_bucket")
			if series == prevBucketOf && cum < prevCum {
				t.Fatalf("non-cumulative bucket line %q (prev %d)", line, prevCum)
			}
			prevBucketOf, prevCum = series, cum
			if strings.Contains(name, `le="+Inf"`) {
				infOf[series] = cum
				prevBucketOf = ""
			}
		case strings.HasSuffix(base, "_count"):
			n, _ := strconv.ParseUint(val, 10, 64)
			countOf[strings.TrimSuffix(base, "_count")] = n
		}
	}
	for series, n := range countOf {
		if inf, ok := infOf[series]; ok && inf != n {
			t.Fatalf("%s: +Inf bucket %d != count %d", series, inf, n)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", "op", "x").Add(2)
	r.GaugeFunc("b", "", func() float64 { return 1.5 })
	r.Histogram("c_seconds", "").ObserveDuration(2 * time.Second)
	got := map[string]float64{}
	for _, s := range r.Snapshot() {
		got[s.Name] = s.Value
	}
	want := map[string]float64{
		`a_total{op="x"}`: 2,
		"b":               1.5,
		"c_seconds_count": 1,
		"c_seconds_sum":   2,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("snapshot[%q] = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}

// TestVecFunc: a VecFunc family's label values are read at every scrape,
// so a label value added between two scrapes shows in the second, in both
// renderings, with the TYPE line its name implies (counter for _total)
// and the label value quoted.
func TestVecFunc(t *testing.T) {
	r := NewRegistry()
	parts := []float64{3}
	r.VecFunc("p_rows", "rows", "partition", func(emit func(string, float64)) {
		for i, v := range parts {
			emit(strconv.Itoa(i), v)
		}
	})
	r.VecFunc("i_builds_total", "builds", "column", func(emit func(string, float64)) {
		emit(`a"b`, 2)
	})
	scrape := func() map[string]float64 {
		got := map[string]float64{}
		for _, s := range r.Snapshot() {
			got[s.Name] = s.Value
		}
		return got
	}
	if got := scrape(); len(got) != 2 || got[`p_rows{partition="0"}`] != 3 || got[`i_builds_total{column="a\"b"}`] != 2 {
		t.Fatalf("first scrape %v", got)
	}
	parts = append(parts, 5)
	if got := scrape(); len(got) != 3 || got[`p_rows{partition="1"}`] != 5 {
		t.Fatalf("second scrape %v", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP p_rows rows\n# TYPE p_rows gauge\np_rows{partition=\"0\"} 3\np_rows{partition=\"1\"} 5\n" +
		"# HELP i_builds_total builds\n# TYPE i_builds_total counter\ni_builds_total{column=\"a\\\"b\"} 2\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge must panic")
		}
	}()
	r.GaugeFunc("x", "", func() float64 { return 0 })
}

// TestConcurrentScrape races writers against renders; run under -race.
// Rendered bucket series must stay internally cumulative even while
// observations land mid-snapshot.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hyrise_t_total", "")
	h := r.Histogram("hyrise_t_seconds", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(uint64(seed*1000 + i%4096))
			}
		}(w)
	}
	var prev uint64
	for i := 0; i < 200; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		assertParseable(t, b.String())
		if v := c.Value(); v < prev {
			t.Fatalf("counter went backwards: %d < %d", v, prev)
		} else {
			prev = v
		}
	}
	close(stop)
	wg.Wait()
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkNoopObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.Counter("hyrise_server_requests_total", "r", "op", fmt.Sprint(i)).Add(uint64(i))
		h := r.Histogram("hyrise_server_op_seconds", "l", "op", fmt.Sprint(i))
		for j := 0; j < 100; j++ {
			h.Observe(uint64(j * j * 1000))
		}
	}
	var sb strings.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		r.WritePrometheus(&sb)
	}
}
