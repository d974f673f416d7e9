package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hyrise"
)

// tinySize runs every workload in about half a second.
var tinySize = sizing{
	pointRows:    10_000,
	olapRows:     10_000,
	ingestRows:   10_000,
	embeddedRows: 10_000,
	warmup:       100 * time.Millisecond,
	setups:       2,
	membenchBuf:  1 << 20,
	replay:       20 * time.Millisecond,
}

// inproc serves a store from this process the way hyrised does: indexed
// on order_id, with a scheduler merging at the default 5%.
type inproc struct {
	srv   *hyrise.DBServer
	sched *hyrise.Scheduler
	addr  string
}

func startInproc(shards int) (target, error) {
	st, err := salesStore(shards)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sched := hyrise.NewScheduler(st, hyrise.SchedulerConfig{Fraction: 0.05})
	if err := sched.Start(); err != nil {
		l.Close()
		return nil, err
	}
	srv, err := hyrise.Serve(l, st, hyrise.ServerOptions{})
	if err != nil {
		sched.Stop()
		l.Close()
		return nil, err
	}
	return &inproc{srv: srv, sched: sched, addr: l.Addr().String()}, nil
}

func (p *inproc) Addr() string     { return p.addr }
func (p *inproc) PeakRSS() float64 { return procStatusBytes(os.Getpid(), "VmHWM") }
func (p *inproc) Stop() {
	p.srv.Close()
	p.sched.Stop()
}

func tinyConfig(t *testing.T, traced bool) config {
	return config{seed: 7, seconds: 0.5, traced: traced, dir: t.TempDir(), start: startInproc, size: tinySize}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The committed BENCHMARK.json is what the metric tables print, and it
// stays inside the contract's limits.
func TestSpecFile(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, specJSON()) {
		t.Error("BENCHMARK.json differs from `hyrisebench spec`; regenerate it")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(committed))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
	}
}

// Every workload reports every metric BENCHMARK.json names — the
// end-to-end ones untraced, the per-layer ones traced — with a unit, and
// verifies every answer against its oracle.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			cfg := tinyConfig(t, traced)
			rep, err := runWorkload(context.Background(), cfg, w.Name)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted < finalSamples {
				t.Errorf("%s traced=%v: %d of %d checks failed", w.Name, traced, rep.Failed, rep.Attempted)
			}
			for name, m := range rep.Metrics {
				if m.Unit == "" {
					t.Errorf("%s: %s has no unit", w.Name, name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(resultLine(rep), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || len(line.Metrics) != len(rep.Metrics) {
				t.Errorf("%s: result line %+v", w.Name, line)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.dir, "trace-"+w.Name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
				if got := rep.Metrics["trace.share_wire_client"].Value + rep.Metrics["trace.share_store"].Value +
					rep.Metrics["trace.share_server_unattributed"].Value; got < 0.999 || got > 1.001 {
					t.Errorf("%s: layer shares sum to %v, want 1", w.Name, got)
				}
			}
		}
	}
}

// A wrong oracle must show as failed checks and a non-zero exit code.
func TestCorruptedOracleFails(t *testing.T) {
	for _, name := range []string{"point_rw", "merge_embedded"} {
		cfg := tinyConfig(t, false)
		cfg.corruptOracle = true
		var out bytes.Buffer
		if code := runAll(context.Background(), cfg, []string{name}, &out, ""); code == 0 {
			t.Errorf("%s: exit code 0 with a corrupted oracle", name)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; !strings.Contains(last, `"correct":false`) || strings.Contains(last, `"failed":0,`) {
			t.Errorf("%s: corrupted oracle went unnoticed: %s", name, last)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(med float64) series { return series{med: med, q1: med * 0.99, q3: med * 1.01, n: 10} }
	wide := func(med float64) series { return series{med: med, q1: med * 0.9, q3: med * 1.1, n: 10} }
	for _, c := range []struct {
		base, new series
		want      string
	}{
		{tight(100), tight(100.5), "unchanged"},
		{tight(100), tight(95), "unchanged"}, // inside the bound
		{tight(100), tight(80), "worse"},
		{tight(100), tight(120), "better"},
		{wide(100), wide(101), "unresolved"}, // spread beyond the bound
		{wide(100), wide(85), "unresolved"},  // loss inside the spread
		{wide(100), wide(50), "worse"},       // loss beyond even that spread
	} {
		if got, _ := verdict(def, c.base, c.new); got != c.want {
			t.Errorf("base %v new %v: verdict %s, want %s", c.base.med, c.new.med, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(file string, ops, failRatio float64) string {
		path := filepath.Join(dir, file)
		for i := 0; i < 4; i++ {
			rep := &report{Workload: "point_rw", FailRatio: failRatio, Metrics: metricSet{}}
			rep.Metrics.put("ops_per_s", ops+float64(i))
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", 1000, 0)
	var out bytes.Buffer
	if code := compareFiles(&out, base, write("same.jsonl", 1001, 0)); code != 0 || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("same numbers: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(io.Discard, base, write("slow.jsonl", 700, 0)); code == 0 {
		t.Error("a 30% loss did not fail the gate")
	}
	if code := compareFiles(io.Discard, base, write("wrong.jsonl", 1000, 0.01)); code == 0 {
		t.Error("a higher fail ratio did not fail the gate")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	med, q1, q3 := quartiles([]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5})
	if med != 5.5 || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 5.5 2.75 8.25", med, q1, q3)
	}
}
