// Command hyrisebench is the repository's end-to-end, layer-attributed
// benchmark: four named workloads measured from outside the system —
// through hyrise/client against a real hyrised child process, through
// the root hyrise package in-process, through the server's own metrics,
// and by timing calls into each layer's public functions.  See README.md.
//
//	bash benchmark/run.sh                       all workloads, tracing off
//	bash benchmark/run.sh --workload point_rw --seed 7 --trace 1
//	bash benchmark/run.sh compare a.jsonl b.jsonl
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("hyrisebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", "", "append each run's full report to this file as one JSON line")
	dir := fs.String("dir", ".bench_build", "scratch directory holding bin/hyrised; logs and spans go here")
	timeout := fs.Duration("timeout", 170*time.Second, "kill everything and fail after this long")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch fs.Arg(0) {
	case "":
	case "compare":
		if fs.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "usage: compare <base.jsonl> <new.jsonl>")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(1), fs.Arg(2))
	case "spec":
		os.Stdout.Write(specJSON())
		return 0
	default:
		fmt.Fprintf(os.Stderr, "hyrisebench: unknown command %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "hyrisebench: -seconds must be positive")
		return 2
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	cfg := config{
		seed: *seed, seconds: *seconds, traced: *trace != 0,
		dir: *dir, start: daemonStarter(*dir), size: fullSize,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return withTimeout(ctx, *timeout*time.Duration(len(names)), func(ctx context.Context) int {
		return runAll(ctx, cfg, names, os.Stdout, *out)
	})
}

// runAll runs the named workloads and prints, for each, every metric by
// name with its unit and then the one-line result.  It returns non-zero
// when a run could not be made or any output was wrong.
func runAll(ctx context.Context, cfg config, names []string, w io.Writer, outPath string) int {
	code := 0
	for _, name := range names {
		rep, err := runWorkload(ctx, cfg, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hyrisebench:", err)
			return 1
		}
		printReport(w, rep)
		if outPath != "" {
			if err := appendReport(outPath, rep); err != nil {
				fmt.Fprintln(os.Stderr, "hyrisebench:", err)
				return 1
			}
		}
		w.Write(resultLine(rep))
		if rep.Failed > 0 {
			code = 1
		}
	}
	return code
}

// runWorkload runs one named workload and checks that the report holds
// exactly the metrics BENCHMARK.json promises for this kind of run.
func runWorkload(ctx context.Context, cfg config, name string) (*report, error) {
	env := readEnv()
	var rep *report
	var err error
	switch name {
	case pointRW.name:
		rep, err = runServed(ctx, cfg, &pointRW)
	case olapScan.name:
		rep, err = runServed(ctx, cfg, &olapScan)
	case ingestMerge.name:
		rep, err = runServed(ctx, cfg, &ingestMerge)
	case "merge_embedded":
		rep, err = runEmbedded(ctx, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	rep.Env = env
	want := endToEnd
	if cfg.traced {
		want = perLayer
	}
	if len(rep.Metrics) != len(want) {
		return nil, fmt.Errorf("%s: report has %d metrics, want %d", name, len(rep.Metrics), len(want))
	}
	for _, def := range want {
		if _, ok := rep.Metrics[def.Name]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, def.Name)
		}
	}
	return rep, nil
}

// printReport prints every metric by name with its unit.
func printReport(w io.Writer, rep *report) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %.0fs  %s  commit %s  %s  nproc %d  load %.2f",
		rep.Workload, rep.Seed, rep.Seconds, mode, rep.Env.Commit, rep.Env.GoVersion, rep.Env.NProc, rep.Env.LoadAvg1)
	if rep.Env.Noisy {
		fmt.Fprint(w, "  NOISY")
	}
	fmt.Fprintln(w)
	for _, name := range rep.Metrics.names() {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-40s %16.4f %-10s", name, m.Value, m.Unit)
		if m.Q1 != 0 || m.Q3 != 0 {
			fmt.Fprintf(w, " q1 %.4f q3 %.4f", m.Q1, m.Q3)
		}
		if m.N != 0 {
			fmt.Fprintf(w, " n %d", m.N)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-40s %16.6f %-10s attempted %d failed %d\n", "fail_ratio", rep.FailRatio, "ratio", rep.Attempted, rep.Failed)
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// resultLine is the one-line result the benchmark contract asks for.
func resultLine(rep *report) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]value{}}
	for name, m := range rep.Metrics {
		res.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return append(b, '\n')
}

func appendReport(path string, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(bytes.TrimSpace(b), '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
