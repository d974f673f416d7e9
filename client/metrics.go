package client

import (
	"math"

	"hyrise/internal/wire"
)

// Metric is one sample from the server's metrics registry.  Name is the
// full Prometheus-style series name with labels rendered in (e.g.
// `hyrise_server_requests_total{op="lookup"}`); histogram families
// contribute their `_count` and `_sum` samples.
type Metric struct {
	Name  string
	Value float64
}

// Metrics fetches a point-in-time snapshot of the server's metrics
// registry — the same series /metrics exposes, over the data protocol.
// Followers answer locally, so pointing a client at a replica reads that
// replica's own apply-lag gauges; a topology check can assert convergence
// without touching the HTTP endpoint.
func (c *Client) Metrics() ([]Metric, error) {
	var req wire.Buffer
	req.U8(wire.OpMetrics)
	r, err := c.do(req.Bytes())
	if err != nil {
		return nil, err
	}
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	out := make([]Metric, 0, n)
	for i := uint32(0); i < n; i++ {
		var m Metric
		if m.Name, err = r.String(); err != nil {
			return nil, err
		}
		bits, err := r.U64()
		if err != nil {
			return nil, err
		}
		m.Value = math.Float64frombits(bits)
		out = append(out, m)
	}
	return out, nil
}

// MetricValue returns the named sample from a Metrics snapshot, by exact
// full name (labels included).
func MetricValue(samples []Metric, name string) (float64, bool) {
	for _, m := range samples {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}
