package main

// point_rw: Figure 1's OLTP read/write ratio on a flat indexed store,
// with the figure's table-scan share moved to olap_scan.  Every op is
// microseconds of storage work under tens of microseconds of
// client/wire/server path, so per-request overhead is what it measures.
var pointRW = servedDef{
	name:   "point_rw",
	shards: 1,
	conns:  2,
	rows:   func(s sizing) int { return s.pointRows },
	stepper: func(env *servedEnv, w *worker) func() opResult {
		p := &pointStepper{w: w}
		return p.step
	},
}

const pointRangeSpan = 100

type pointStepper struct{ w *worker }

func (p *pointStepper) step() opResult {
	w := p.w
	switch r := w.rng.Float64(); {
	case r < 0.50:
		return w.lookupOwn()
	case r < 0.74:
		return p.row()
	case r < 0.82:
		return p.rangeKeys()
	case r < 0.92:
		return w.insertBatch(kInsert, 1)
	case r < 0.98:
		return w.updateOwn()
	default:
		return p.delete()
	}
}

func (p *pointStepper) row() opResult {
	w := p.w
	res := opResult{kind: kRow, class: clsRead}
	key, st, ok := w.o.liveFrom(w.rng.Intn(w.o.count()))
	if !ok {
		res.failed = true
		return res
	}
	vals, err := w.db.Row(st.id)
	res.failed = err != nil || !rowEqual(vals, w.o.d.row(key, st.ver))
	return res
}

// rangeKeys reads a span of preloaded keys and checks the part of the
// answer this connection can know: each key it owns in the span is in
// the result exactly when it is live.
func (p *pointStepper) rangeKeys() opResult {
	w := p.w
	res := opResult{kind: kRange, class: clsRead}
	lo := uint64(w.rng.Intn(w.o.d.n - pointRangeSpan))
	hi := lo + pointRangeSpan - 1
	ids, err := w.db.Range(0, "order_id", lo, hi)
	if err != nil || len(ids) > pointRangeSpan {
		res.failed = true
		return res
	}
	got := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		got[id] = struct{}{}
	}
	conns := uint64(w.o.conns)
	first := lo + (uint64(w.o.conn)+conns-lo%conns)%conns
	for key := first; key <= hi; key += conns {
		st := &w.o.pre[key/conns]
		if _, in := got[st.id]; in != st.live {
			res.failed = true
		}
	}
	return res
}

func (p *pointStepper) delete() opResult {
	w := p.w
	res := opResult{kind: kDelete, class: clsWrite, rows: 1}
	key, st, ok := w.o.liveFrom(w.rng.Intn(w.o.count()))
	if !ok {
		res.failed = true
		return res
	}
	if err := w.db.Delete(st.id); err != nil {
		res.failed = true
		return res
	}
	w.o.deleted(key, st)
	return res
}
