package hyrise_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hyrise"
	"hyrise/client"
)

// obsServer serves a fresh 4-shard store and its observability endpoint
// on loopback, returning the data address and the obs base URL.
func obsServer(t *testing.T) (string, string, *hyrise.DBServer) {
	t.Helper()
	st, err := hyrise.NewShardedTable("obs", hyrise.Schema{
		{Name: "k", Type: hyrise.Uint64},
		{Name: "v", Type: hyrise.Uint64},
	}, "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hyrise.Serve(l, st, hyrise.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.ObsHandler())
	t.Cleanup(hs.Close)
	return l.Addr().String(), hs.URL, srv
}

// scrapeMetrics fetches and parses one Prometheus text exposition,
// failing the test on any malformed line.  Histogram bucket series keep
// their label-rendered names, so cumulativity is checkable per series.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil && val != "+Inf" {
			t.Fatalf("unparseable value in line %q: %v", line, err)
		}
		if _, dup := out[name]; dup {
			t.Fatalf("duplicate series %q", name)
		}
		out[name] = v
	}
	// Every histogram family: buckets cumulative and the +Inf bucket
	// equal to the family's _count.  The family key keeps the non-le
	// labels, so multi-label histograms (per-op latency, merge phases)
	// check per series, not conflated.
	splitBucket := func(name string) (fam, le string, ok bool) {
		i := strings.Index(name, "_bucket{")
		if i < 0 {
			return "", "", false
		}
		base := name[:i]
		labels := strings.Split(name[i+len("_bucket{"):len(name)-1], ",")
		var rest []string
		for _, l := range labels {
			if v, isLe := strings.CutPrefix(l, `le="`); isLe {
				le = strings.TrimSuffix(v, `"`)
			} else {
				rest = append(rest, l)
			}
		}
		if len(rest) > 0 {
			base += "{" + strings.Join(rest, ",") + "}"
		}
		return base, le, true
	}
	byFamily := make(map[string][]string)
	for name := range out {
		if fam, _, ok := splitBucket(name); ok {
			byFamily[fam] = append(byFamily[fam], name)
		}
	}
	for fam, buckets := range byFamily {
		type bound struct {
			le   float64
			name string
		}
		var bs []bound
		for _, name := range buckets {
			_, le, _ := splitBucket(name)
			b := bound{name: name}
			if le == "+Inf" {
				b.le = -1 // sorts last below
			} else {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("bad le in %q: %v", name, err)
				}
				b.le = v
			}
			bs = append(bs, b)
		}
		sort.Slice(bs, func(i, j int) bool {
			if bs[i].le == -1 {
				return false
			}
			if bs[j].le == -1 {
				return true
			}
			return bs[i].le < bs[j].le
		})
		prev := 0.0
		for _, b := range bs {
			if out[b.name] < prev {
				t.Fatalf("non-cumulative buckets in %s: %s = %v < %v",
					fam, b.name, out[b.name], prev)
			}
			prev = out[b.name]
		}
		countName := fam + "_count"
		if i := strings.Index(fam, "{"); i >= 0 {
			countName = fam[:i] + "_count" + fam[i:]
		}
		if cnt, ok := out[countName]; !ok || cnt != prev {
			t.Fatalf("histogram %s: +Inf bucket %v != _count %v", fam, prev, cnt)
		}
	}
	return out
}

// TestObservabilityUnderLoad hammers a 4-shard store with concurrent
// writers, merges and readers while a poller scrapes /metrics every 10ms:
// every scrape must parse, counters must be monotonic scrape-over-scrape,
// and histograms must stay internally consistent (checked by the parser).
// Run it under -race: the poller races every instrument in the registry.
func TestObservabilityUnderLoad(t *testing.T) {
	addr, base, _ := obsServer(t)

	const (
		writers = 2
		readers = 2
		rows    = 256
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// A parse failure mid-scrape is a t.Fatal; make sure the hammer
	// goroutines are stopped and joined before the test returns, or a
	// late t.Errorf from one of them panics the harness.
	var stopOnce sync.Once
	stopAll := func() { stopOnce.Do(func() { close(stop) }) }
	defer wg.Wait()
	defer stopAll()
	seed, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	ids := make([]int, rows)
	for i := range ids {
		if ids[i], err = seed.Insert([]any{uint64(i), uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			defer c.Close()
			own := ids[w*rows/writers : (w+1)*rows/writers]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := c.Update(own[i%len(own)], map[string]any{"v": uint64(i)})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				own[i%len(own)] = id
				if i%200 == 100 {
					if _, err := c.Merge(client.MergeOptions{}); err != nil &&
						!strings.Contains(err.Error(), "merge already in progress") {
						t.Errorf("writer %d: merge: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("reader %d: %v", rd, err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Lookup("k", uint64(i%rows)); err != nil {
					t.Errorf("reader %d: %v", rd, err)
					return
				}
				if i%50 == 25 {
					snap, err := c.Snapshot()
					if err != nil {
						t.Errorf("reader %d: snapshot: %v", rd, err)
						return
					}
					if _, err := c.SumAt(snap, "v"); err != nil {
						t.Errorf("reader %d: sum: %v", rd, err)
						return
					}
					if err := c.Release(snap); err != nil {
						t.Errorf("reader %d: release: %v", rd, err)
						return
					}
				}
			}
		}(rd)
	}

	// The poller: 10ms scrapes, counters monotonic between scrapes.
	deadline := time.Now().Add(1500 * time.Millisecond)
	prev := map[string]float64{}
	scrapes := 0
	for time.Now().Before(deadline) && !t.Failed() {
		cur := scrapeMetrics(t, base)
		for name, was := range prev {
			monotonic := strings.HasSuffix(name, "_total") ||
				strings.Contains(name, "_total{") ||
				strings.Contains(name, "_bucket{") ||
				strings.HasSuffix(name, "_count") ||
				strings.HasSuffix(name, "_sum")
			if monotonic && cur[name] < was {
				t.Fatalf("counter %s went backwards: %v -> %v", name, was, cur[name])
			}
		}
		prev = cur
		scrapes++
		time.Sleep(10 * time.Millisecond)
	}
	stopAll()
	wg.Wait()
	if t.Failed() {
		return
	}
	if scrapes < 10 {
		t.Fatalf("only %d scrapes completed", scrapes)
	}

	// The final scrape must cover every instrumented subsystem.
	final := scrapeMetrics(t, base)
	for _, series := range []string{
		`hyrise_server_requests_total{op="lookup"}`,
		`hyrise_server_op_seconds_count{op="lookup"}`,
		"hyrise_server_connections",
		"hyrise_merge_total",
		"hyrise_merge_rows_merged_total",
		"hyrise_store_delta_fill_fraction",
		"hyrise_epoch_current",
		"hyrise_gc_watermark",
		`hyrise_index_reads_total{route="scanned"}`,
		"hyrise_query_seeds_total",
	} {
		if _, ok := final[series]; !ok {
			t.Errorf("series %s missing from /metrics", series)
		}
	}
	if final[`hyrise_server_requests_total{op="lookup"}`] == 0 {
		t.Error("lookup requests not counted")
	}
	if final["hyrise_merge_total"] == 0 {
		t.Error("merges not counted")
	}
	// Per-op latency histogram and request counter move together: the
	// counter increments before the observation, so the histogram can
	// only trail by requests in flight.
	reqs := final[`hyrise_server_requests_total{op="lookup"}`]
	obs := final[`hyrise_server_op_seconds_count{op="lookup"}`]
	if obs > reqs || reqs-obs > 64 {
		t.Errorf("lookup latency observations %v inconsistent with %v requests", obs, reqs)
	}
}

// TestHealthzAndPprof pins the readiness endpoint's primary-side
// semantics and that pprof is mounted on the private mux.
func TestHealthzAndPprof(t *testing.T) {
	addr, base, _ := obsServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Insert([]any{uint64(1), uint64(1)}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, "role=primary") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	// A primary is "converged" to any epoch it has already reached, and
	// not to epochs from the future.
	if code, body = get("/healthz?min_epoch=1"); code != http.StatusOK {
		t.Fatalf("healthz min_epoch=1: %d %q", code, body)
	}
	if code, _ = get(fmt.Sprintf("/healthz?min_epoch=%d", uint64(1)<<62)); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with future min_epoch: %d, want 503", code)
	}
	if code, body = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof: %d %q", code, body)
	}
}

// TestClientMetrics round-trips the OpMetrics snapshot via client.Metrics:
// store gauges, the uptime gauge and the cumulative per-op request and
// error counters.
func TestClientMetrics(t *testing.T) {
	addr, _, _ := obsServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Insert([]any{uint64(7), uint64(7)}); err != nil {
		t.Fatal(err)
	}
	const lookups = 5
	for i := 0; i < lookups; i++ {
		if _, err := c.Lookup("k", uint64(7)); err != nil {
			t.Fatal(err)
		}
	}

	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := client.MetricValue(samples, `hyrise_server_requests_total{op="lookup"}`)
	if !ok || v < lookups {
		t.Fatalf("metrics lookup counter = %v, %v; want >= %d", v, ok, lookups)
	}
	if _, ok := client.MetricValue(samples, "hyrise_store_main_rows"); !ok {
		t.Fatal("store gauges missing from OpMetrics snapshot")
	}
	if v, ok := client.MetricValue(samples, "hyrise_server_uptime_seconds"); !ok || v <= 0 {
		t.Fatalf("uptime = %v, %v; want > 0", v, ok)
	}
	if v, ok := client.MetricValue(samples, `hyrise_server_errors_total{op="lookup"}`); !ok || v != 0 {
		t.Fatalf("lookup errors = %v, %v; want 0", v, ok)
	}
	// A server-side failure lands in the op's error counter (a bad
	// column would be rejected client-side and never reach the wire, so
	// read at an epoch the server has not reached).
	if _, err := c.LookupAt(client.Snap(1<<40), "k", uint64(7)); err == nil {
		t.Fatal("lookup at bogus snapshot succeeded")
	}
	if samples, err = c.Metrics(); err != nil {
		t.Fatal(err)
	}
	nerr, _ := client.MetricValue(samples, `hyrise_server_errors_total{op="lookup"}`)
	if nerr != 1 {
		t.Fatalf("lookup errors after bad request = %v, want 1", nerr)
	}
}
