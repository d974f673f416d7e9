package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readReports loads a set of runs, one JSON report per line; an empty
// set is an error.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rep := &report{}
		if err := json.Unmarshal(sc.Bytes(), rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, rep)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return reps, nil
}

// series is one metric of one workload across the runs of a set.
type series struct {
	med, q1, q3 float64
	n           int
}

// spread is the interquartile range as a share of the median.
func (s series) spread() float64 { return ratio(s.q3-s.q1, s.med) }

// seriesOf gathers a metric over the untraced runs of a workload.  With
// a single run the quartiles are the run's own (over its slices).
func seriesOf(reps []*report, workload, name string) (series, bool) {
	var vals []float64
	var only metric
	for _, r := range reps {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			vals = append(vals, m.Value)
			only = m
		}
	}
	switch len(vals) {
	case 0:
		return series{}, false
	case 1:
		s := series{med: only.Value, q1: only.Q1, q3: only.Q3, n: 1}
		if only.Q1 == 0 && only.Q3 == 0 {
			s.q1, s.q3 = only.Value, only.Value
		}
		return s, true
	}
	med, q1, q3 := quartiles(vals)
	return series{med, q1, q3, len(vals)}, true
}

// verdict judges new against base for one metric.  worsening is how far
// new's median is on the bad side of base's, as a share of base's.
func verdict(def metricDef, base, new series) (string, float64) {
	worsening := ratio(new.med-base.med, base.med)
	if def.Better == "higher" {
		worsening = -worsening
	}
	spread := max(base.spread(), new.spread())
	switch {
	case worsening > def.Bound && worsening > spread:
		return "worse", worsening
	case worsening > def.Bound || spread > def.Bound:
		// Either the runs of one side disagree among themselves by more
		// than the bound, or the loss is inside that disagreement.
		return "unresolved", worsening
	case -worsening > spread && -worsening > 0:
		return "better", worsening
	}
	return "unchanged", worsening
}

// maxFailRatio is the worst fail ratio among a workload's runs.
func maxFailRatio(reps []*report, workload string) float64 {
	var worst float64
	for _, r := range reps {
		if r.Workload == workload {
			worst = max(worst, r.FailRatio)
		}
	}
	return worst
}

// compareFiles prints one row per workload and end-to-end metric and
// returns non-zero when any is worse or a fail ratio rose.
func compareFiles(w io.Writer, basePath, newPath string) int {
	base, err := readReports(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	cur, err := readReports(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	fmt.Fprintf(w, "base %s (commit %s)  new %s (commit %s)\n", basePath, base[0].Env.Commit, newPath, cur[0].Env.Commit)
	fmt.Fprintln(w, "ratio = new median / base median; q1..q3 over each set's runs; bound is the allowed worsening")
	fmt.Fprintf(w, "%-15s %-17s %-7s %14s %27s %14s %27s %3s %7s %6s  %s\n",
		"workload", "metric", "unit", "base", "base q1..q3", "new", "new q1..q3", "n", "ratio", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, def := range endToEnd {
			b, okB := seriesOf(base, wl.Name, def.Name)
			n, okN := seriesOf(cur, wl.Name, def.Name)
			if !okB || !okN {
				continue
			}
			v, _ := verdict(def, b, n)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-17s %-7s %14.4f %13.4f..%-12.4f %14.4f %13.4f..%-12.4f %3d %7.4f %5.0f%%  %s\n",
				wl.Name, def.Name, def.Unit, b.med, b.q1, b.q3, n.med, n.q1, n.q3, min(b.n, n.n), ratio(n.med, b.med), def.Bound*100, v)
		}
		fb, fn := maxFailRatio(base, wl.Name), maxFailRatio(cur, wl.Name)
		v := "unchanged"
		if fn > fb {
			v, code = "worse", 1
		}
		fmt.Fprintf(w, "%-15s %-17s %-7s %14.6f %27s %14.6f %27s %3s %7s %6s  %s\n",
			wl.Name, "fail_ratio", "ratio", fb, "", fn, "", "", "", "any", v)
	}
	return code
}
