package main

import (
	"time"

	"hyrise"
)

// probeEpoch times capturing and releasing a read view: one epoch
// capture plus a pin and an unpin.
func probeEpoch(ms metricSet, st hyrise.Store) {
	const n = 100_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		v := st.Snapshot()
		v.Release()
	}
	ms.put("epoch.snapshot_ns", float64(time.Since(t0))/n)
}
