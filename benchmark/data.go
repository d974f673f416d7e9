package main

import (
	"fmt"
	"reflect"
)

// The sales table every served workload uses.  order_id is the unique
// key, the shard key and the only indexed column.
const (
	salesSchema = "order_id:uint64,customer:uint64,qty:uint32,amount:uint64,status:uint32,product:string"
	nCustomers  = 50_000
	nQty        = 100
	nStatus     = 8
	nProducts   = 1000
)

var productNames = func() []string {
	p := make([]string, nProducts)
	for i := range p {
		p[i] = fmt.Sprintf("product-%04d", i)
	}
	return p
}()

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// salesRow is one version of one order.  customer, qty and product
// depend on the key alone; amount and status change with the version,
// which updates bump.  (qty stays put so that Sum(qty) moves only with
// inserts and deletes and a concurrent reader can bound it.)
type salesRow struct {
	key      uint64
	customer uint64
	qty      uint32
	amount   uint64
	status   uint32
	product  int
}

func (r salesRow) values() []any {
	return []any{r.key, r.customer, r.qty, r.amount, r.status, productNames[r.product]}
}

// dataset derives every input from the seed: row contents are a pure
// function of (seed, key, version), so an oracle needs only a row's
// version to know what the server must answer.
type dataset struct {
	seed      uint64
	n         int    // preloaded rows, keys 0..n-1
	amountDom uint64 // sized for ~50% unique amounts among n draws

	// Aggregates over the preloaded rows, for checks that cannot see the
	// other connection's concurrent writes.
	sumQty      uint64
	sumAmount   uint64
	statusCount [nStatus]int
	custPrefix  []int32    // custPrefix[c] = preloaded rows with customer < c
	productKeys [][]uint32 // preloaded keys per product
}

func newDataset(seed int64, n int) *dataset {
	d := &dataset{seed: mix64(uint64(seed)), n: n, amountDom: uint64(float64(n)/1.6) + 1}
	d.custPrefix = make([]int32, nCustomers+1)
	d.productKeys = make([][]uint32, nProducts)
	for k := 0; k < n; k++ {
		r := d.row(uint64(k), 0)
		d.sumQty += uint64(r.qty)
		d.sumAmount += r.amount
		d.statusCount[r.status]++
		d.custPrefix[r.customer+1]++
		d.productKeys[r.product] = append(d.productKeys[r.product], uint32(k))
	}
	for c := 0; c < nCustomers; c++ {
		d.custPrefix[c+1] += d.custPrefix[c]
	}
	return d
}

func (d *dataset) row(key uint64, ver uint32) salesRow {
	hk := mix64(d.seed ^ key*0x9e3779b97f4a7c15)
	hv := mix64(hk + uint64(ver)*0xd1342543de82ef95)
	return salesRow{
		key:      key,
		customer: hk % nCustomers,
		product:  int((hk >> 32) % nProducts),
		qty:      uint32((hk >> 16) % nQty),
		amount:   hv % d.amountDom,
		status:   uint32((hv >> 48) % nStatus),
	}
}

// customersIn counts preloaded rows with customer in [lo, hi].
func (d *dataset) customersIn(lo, hi uint64) int {
	return int(d.custPrefix[hi+1] - d.custPrefix[lo])
}

// keyState is what an oracle remembers about one key it owns.
type keyState struct {
	id   int // current row id
	ver  uint32
	live bool
}

// oracle tracks the keys one connection owns.  Ownership is disjoint:
// of the preloaded keys connection c owns those with key % conns == c,
// and its i-th inserted key is n + i*conns + c, so no two connections
// ever write the same row and each oracle is exact without locking.
type oracle struct {
	d     *dataset
	conn  int
	conns int
	pre   []keyState
	ins   []keyState
	valid int
	sumQ  uint64
}

func newOracle(d *dataset, conn, conns int) *oracle {
	return &oracle{d: d, conn: conn, conns: conns, pre: make([]keyState, 0, d.n/conns+1)}
}

func (o *oracle) count() int { return len(o.pre) + len(o.ins) }

// at returns the idx-th owned key and its state.
func (o *oracle) at(idx int) (uint64, *keyState) {
	if idx < len(o.pre) {
		return uint64(idx*o.conns + o.conn), &o.pre[idx]
	}
	i := idx - len(o.pre)
	return uint64(o.d.n + i*o.conns + o.conn), &o.ins[i]
}

// liveFrom returns the first live key at or after idx (wrapping), or
// false when the oracle holds none.
func (o *oracle) liveFrom(idx int) (uint64, *keyState, bool) {
	for i := 0; i < o.count(); i++ {
		key, st := o.at((idx + i) % o.count())
		if st.live {
			return key, st, true
		}
	}
	return 0, nil, false
}

// nextInsert returns the rows for the next n keys this oracle will own.
func (o *oracle) nextInsert(n int) []salesRow {
	rows := make([]salesRow, n)
	for i := range rows {
		rows[i] = o.d.row(uint64(o.d.n+(len(o.ins)+i)*o.conns+o.conn), 0)
	}
	return rows
}

// inserted records acknowledged inserts of rows returned by nextInsert
// (or, during the preload, of owned preloaded keys).
func (o *oracle) inserted(preload bool, rows []salesRow, ids []int) {
	for i, r := range rows {
		st := keyState{id: ids[i], live: true}
		if preload {
			o.pre = append(o.pre, st)
		} else {
			o.ins = append(o.ins, st)
		}
		o.valid++
		o.sumQ += uint64(r.qty)
	}
}

func (o *oracle) deleted(key uint64, st *keyState) {
	st.live = false
	o.valid--
	o.sumQ -= uint64(o.d.row(key, st.ver).qty)
}

// rowEqual reports whether a materialized row equals the expected one.
func rowEqual(got []any, want salesRow) bool {
	return reflect.DeepEqual(got, want.values())
}
