package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"

	"hyrise"
	"hyrise/internal/bench"
	"hyrise/internal/membench"
	"hyrise/internal/model"
)

// cpuHz reads the clock the cost model converts cycles with.
func cpuHz() float64 {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "cpu MHz"); ok {
			if mhz, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":")), 64); err == nil && mhz > 0 {
				return mhz * 1e6
			}
		}
	}
	return 2e9
}

// probeModel sets the merges in reports against the paper's cost model
// (§4, §7.4) at the host's measured bandwidth: the predicted time of the
// same column merges, and the share of streaming bandwidth the model's
// traffic over the measured time comes to.
func probeModel(ms metricSet, reports []hyrise.MergeReport, bw bandwidth) {
	threads := runtime.GOMAXPROCS(0)
	hz := cpuHz()
	arch := hyrise.ModelArch{
		LineBytes:   64,
		LLCBytes:    bench.DetectLLCBytes(),
		StreamBPC:   membench.BytesPerCycle(bw.stream, hz),
		RandomBPC:   membench.BytesPerCycle(bw.random, hz),
		OpsPerCycle: 1,
		Threads:     threads,
		HZ:          hz,
	}
	var predicted, measured, traffic float64
	for _, r := range reports {
		measured += r.MergeRun.Seconds()
		for _, c := range r.Columns {
			w := hyrise.ModelWorkload{
				NM: c.NM, ND: c.ND, Ej: c.ValueBytes,
				UM: c.UniqueMain, UD: c.UniqueDelta, UPrime: c.UniqueMerged,
				NC: len(r.Columns),
			}
			predicted += hyrise.Predict(w, arch, threads > 1).TotalCycles() / hz
			traffic += model.EstimateTraffic(w, arch, threads > 1).Total()
		}
	}
	ms.put("model.predicted_merge_s", predicted)
	ms.put("model.measured_over_predicted", ratio(measured, predicted))
	ms.put("core.bandwidth_fraction", ratio(traffic, measured*bw.stream))
}
