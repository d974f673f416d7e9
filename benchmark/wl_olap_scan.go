package main

// olap_scan: Figure 1's OLAP mix on the unindexed columns of a 2-shard
// store, read under snapshot tokens that are refreshed every
// olapOpsPerToken ops.  kernel, query and shard fan-out do nearly all
// the work and the wire almost none; the insert share keeps a delta tail
// and merges alive beside the scans.
var olapScan = servedDef{
	name:   "olap_scan",
	shards: 2,
	conns:  2,
	rows:   func(s sizing) int { return s.olapRows },
	stepper: func(env *servedEnv, w *worker) func() opResult {
		o := &olapStepper{w: w}
		return o.step
	},
}

const (
	olapOpsPerToken = 64
	olapBatch       = 100
	olapCustSpan    = nCustomers / 100 // 1% selectivity
	olapQtySpan     = 30
)

// fullColumnCycle is the order full-column reads are issued in under one
// token: two sums (which must agree) and one count per status (which
// must add up to the token's valid rows).
var fullColumnCycle = [...]struct {
	kind   opKind
	status uint32
}{
	{kSum, 0}, {kCountEqual, 0}, {kMin, 0}, {kCountEqual, 1}, {kSum, 0}, {kCountEqual, 2},
	{kMax, 0}, {kCountEqual, 3}, {kCountEqual, 4}, {kCountEqual, 5}, {kCountEqual, 6}, {kCountEqual, 7},
}

type olapStepper struct {
	w *worker

	tok        snap
	opsOnTok   int
	cycle      int
	sums       []uint64
	counts     [nStatus]int
	counted    int
	validAsked bool
}

func (o *olapStepper) step() opResult {
	w := o.w
	if o.tok == 0 || o.opsOnTok >= olapOpsPerToken {
		return o.refresh()
	}
	o.opsOnTok++
	if o.counted == nStatus && !o.validAsked {
		return o.validRows()
	}
	switch r := w.rng.Float64(); {
	case r < 0.40:
		return o.fullColumn()
	case r < 0.68:
		return o.rangeCustomers()
	case r < 0.93:
		return o.query()
	default:
		return w.insertBatch(kInsertBatch, olapBatch)
	}
}

// refresh releases the old token and captures a new one.
func (o *olapStepper) refresh() opResult {
	res := opResult{kind: kSnapshot, class: clsOther}
	if o.tok != 0 {
		if err := o.w.db.Release(o.tok); err != nil {
			res.failed = true
		}
	}
	tok, err := o.w.db.Snapshot()
	if err != nil {
		o.tok, res.failed = 0, true
		return res
	}
	*o = olapStepper{w: o.w, tok: tok}
	return res
}

func (o *olapStepper) fullColumn() opResult {
	w, d := o.w, o.w.o.d
	e := fullColumnCycle[o.cycle%len(fullColumnCycle)]
	o.cycle++
	res := opResult{kind: e.kind, class: clsRead}
	switch e.kind {
	case kSum:
		sum, err := w.db.Sum(o.tok, "amount")
		// Inserts only add, and a token's answer never changes.
		res.failed = err != nil || sum < d.sumAmount || (len(o.sums) > 0 && sum != o.sums[0])
		o.sums = append(o.sums, sum)
	case kMin:
		v, ok, err := w.db.Min(o.tok, "qty")
		res.failed = err != nil || !ok || v != 0
	case kMax:
		v, ok, err := w.db.Max(o.tok, "qty")
		res.failed = err != nil || !ok || v != nQty-1
	case kCountEqual:
		n, err := w.db.CountEqual(o.tok, "status", e.status)
		res.failed = err != nil || n < d.statusCount[e.status]
		if o.counted < nStatus {
			o.counts[e.status] = n
			o.counted++
		}
	}
	return res
}

// validRows closes the per-token check: the eight status counts read
// under the token must add up to its valid rows.
func (o *olapStepper) validRows() opResult {
	res := opResult{kind: kValidRows, class: clsRead}
	o.validAsked = true
	n, err := o.w.db.ValidRows(o.tok)
	total := 0
	for _, c := range o.counts {
		total += c
	}
	res.failed = err != nil || n != total
	return res
}

func (o *olapStepper) rangeCustomers() opResult {
	w, d := o.w, o.w.o.d
	res := opResult{kind: kRange, class: clsRead}
	lo := uint64(w.rng.Intn(nCustomers - olapCustSpan))
	hi := lo + olapCustSpan - 1
	ids, err := w.db.Range(o.tok, "customer", lo, hi)
	want := d.customersIn(lo, hi)
	res.failed = err != nil || len(ids) < want || len(ids) > want+int(w.env.inserted.Load())
	return res
}

// query runs product = p AND qty BETWEEN a AND b, projecting order_id
// and amount.  Every returned row is recomputed from its key, and the
// preloaded part of the answer must be complete.
func (o *olapStepper) query() opResult {
	w, d := o.w, o.w.o.d
	res := opResult{kind: kQuery, class: clsRead}
	p := w.rng.Intn(nProducts)
	a := uint32(w.rng.Intn(nQty - olapQtySpan))
	b := a + olapQtySpan
	ids, vals, err := w.db.Query(o.tok, []filter{
		{col: "product", lo: productNames[p]},
		{col: "qty", lo: a, hi: b},
	}, []string{"order_id", "amount"})
	if err != nil || len(vals) != len(ids) {
		res.failed = true
		return res
	}
	res.results = len(ids)
	want := 0
	for _, k := range d.productKeys[p] {
		if q := d.row(uint64(k), 0).qty; q >= a && q <= b {
			want++
		}
	}
	preloaded := 0
	for _, v := range vals {
		key, ok1 := v[0].(uint64)
		amount, ok2 := v[1].(uint64)
		r := d.row(key, 0)
		if !ok1 || !ok2 || r.product != p || r.qty < a || r.qty > b || r.amount != amount {
			res.failed = true
		}
		if key < uint64(d.n) {
			preloaded++
		}
	}
	if preloaded != want {
		res.failed = true
	}
	return res
}
