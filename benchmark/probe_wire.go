package main

import (
	"bytes"
	"runtime"
	"time"

	"hyrise/internal/wire"
)

// probeWire times the frame layer alone on the two frames point_rw sends
// most: encoding and writing a Lookup request, and reading and decoding
// a 100-id response.  Allocations are per request/response pair.
func probeWire(ms metricSet) error {
	const iters = 50_000
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = i * 7
	}
	var resp wire.Buffer
	resp.U8(wire.StatusOK)
	resp.RowIDs(ids)
	var framed bytes.Buffer
	if err := wire.WriteFrame(&framed, resp.Bytes()); err != nil {
		return err
	}

	var out bytes.Buffer
	encode := func() error {
		var req wire.Buffer
		req.U8(wire.OpLookup)
		req.U64(0)
		req.String("order_id")
		if err := req.Value(uint64(123456)); err != nil {
			return err
		}
		out.Reset()
		return wire.WriteFrame(&out, req.Bytes())
	}
	decode := func() error {
		payload, err := wire.ReadFrame(bytes.NewReader(framed.Bytes()))
		if err != nil {
			return err
		}
		r := wire.NewReader(payload)
		if _, err := r.U8(); err != nil {
			return err
		}
		_, err = r.RowIDs()
		return err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := encode(); err != nil {
			return err
		}
	}
	t1 := time.Now()
	for i := 0; i < iters; i++ {
		if err := decode(); err != nil {
			return err
		}
	}
	t2 := time.Now()
	runtime.ReadMemStats(&after)
	ms.put("wire.frame_encode_ns", float64(t1.Sub(t0))/iters)
	ms.put("wire.frame_decode_ns", float64(t2.Sub(t1))/iters)
	ms.put("wire.frame_allocs", float64(after.Mallocs-before.Mallocs)/iters)
	return nil
}
