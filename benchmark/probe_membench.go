package main

import (
	"runtime"

	"hyrise/internal/membench"
)

// bandwidth is the host's measured memory bandwidth in bytes per second.
type bandwidth struct{ stream, random float64 }

// probeBandwidth calibrates streaming and random-gather bandwidth over
// bufBytes per thread.  It runs before a traced run sets anything up: a
// large heap under collection or a still-merging hyrised on the same
// cores would be measured instead of the memory.  Best of three, since a
// pass that pays for page faults reads low, never high.
func probeBandwidth(ms metricSet, bufBytes int) bandwidth {
	opts := membench.Options{BufBytes: bufBytes, Iters: 3, Threads: runtime.GOMAXPROCS(0)}
	var bw bandwidth
	for i := 0; i < 3; i++ {
		bw.stream = max(bw.stream, membench.MeasureStream(opts))
		bw.random = max(bw.random, membench.MeasureRandom(opts))
	}
	ms.put("membench.stream_gbps", bw.stream/1e9)
	ms.put("membench.random_mops", bw.random/8/1e6)
	return bw
}
