// Package csbtree implements a Cache-Sensitive B+ tree (Rao & Ross,
// SIGMOD 2000) keyed by uncompressed column values, as used by the delta
// partition of every column (paper §3, §5.1).
//
// The defining CSB+ property is that all children of an internal node are
// stored contiguously in one node group, so the node stores only its key
// array and the index of the first child; child i is firstChild+i.  Node
// capacity is derived from the simulated cache-line budget: with 16-byte
// values a node holds at most 3 keys, matching the paper's example (§6.1).
// Splits reallocate the affected child group, which is why the tree
// consumes roughly 2x the raw value payload — the factor the paper's
// Step 1(a) traffic model assumes (Equation 8).
//
// Each distinct value carries a posting list of tuple IDs (positions in the
// delta partition) in insertion order.  The merge Step 1(a) performs an
// in-order traversal of the leaves, which yields the sorted unique values
// and, through the posting lists, rewrites the delta partition to
// dictionary codes without touching each tuple more than once.
package csbtree

import (
	"fmt"

	"hyrise/internal/val"
)

// LineBytes is the simulated cache-line size used to derive node fanout.
const LineBytes = 64

// nodeOverheadBytes approximates the per-node header (count, kind, first
// child) charged against the cache-line budget when deriving fanout.
const nodeOverheadBytes = 16

type posting struct {
	tid  int32
	next int32
}

// Tree is a CSB+ tree.  Create one with New or NewWithFanout.
type Tree[V val.Value] struct {
	k int // max keys per node, >= 2

	// Parallel node arenas, indexed by node id.  keys/phead/ptail hold k
	// slots per node.
	keys  []V
	nkeys []int32
	leaf  []bool
	first []int32 // internal nodes: node id of child 0; children are contiguous

	phead []int32 // leaf slots: head of posting list, -1 if unused
	ptail []int32

	postings []posting

	// Node-group reallocation abandons the old group; abandoned regions are
	// recycled through per-size free lists so the arena stays near the live
	// node count (the paper's Step 1(a) model assumes the tree costs ~2x
	// the raw value payload).
	free map[int][]int32

	root   int32
	unique int
	total  int
}

// New returns an empty tree with fanout derived from V's fixed value size
// (or 16 bytes for variable-length values), mimicking cache-line-sized
// nodes.
func New[V val.Value]() *Tree[V] {
	size := val.FixedSize[V]()
	if size <= 0 {
		size = 16
	}
	k := (LineBytes - nodeOverheadBytes) / size
	if k < 2 {
		k = 2
	}
	return NewWithFanout[V](k)
}

// NewWithFanout returns an empty tree holding at most k keys per node.
// Small k values are useful in tests to force deep trees and frequent node
// group reallocation.
func NewWithFanout[V val.Value](k int) *Tree[V] {
	if k < 2 {
		panic(fmt.Sprintf("csbtree: fanout %d < 2", k))
	}
	return &Tree[V]{k: k, root: -1}
}

// Fanout returns the maximum number of keys per node.
func (t *Tree[V]) Fanout() int { return t.k }

// Unique returns the number of distinct values.
func (t *Tree[V]) Unique() int { return t.unique }

// Total returns the number of inserted (value, tid) pairs.
func (t *Tree[V]) Total() int { return t.total }

// SizeBytes estimates the memory held by the tree: node arenas plus the
// posting arena.
func (t *Tree[V]) SizeBytes() int {
	per := val.FixedSize[V]()
	if per <= 0 {
		per = 16
	}
	nodes := len(t.nkeys)
	return nodes*(t.k*per+nodeOverheadBytes) + len(t.postings)*8
}

// alloc reserves n contiguous node ids and returns the first, reusing a
// released region of exactly n nodes when available.  All arenas grow
// together; previously returned ids remain valid (they are indices).
func (t *Tree[V]) alloc(n int) int32 {
	if ids := t.free[n]; len(ids) > 0 {
		id := ids[len(ids)-1]
		t.free[n] = ids[:len(ids)-1]
		for i := int32(0); i < int32(n); i++ {
			t.resetNode(id + i)
		}
		return id
	}
	id := int32(len(t.nkeys))
	for i := 0; i < n; i++ {
		t.nkeys = append(t.nkeys, 0)
		t.leaf = append(t.leaf, true)
		t.first = append(t.first, -1)
		for j := 0; j < t.k; j++ {
			var zero V
			t.keys = append(t.keys, zero)
			t.phead = append(t.phead, -1)
			t.ptail = append(t.ptail, -1)
		}
	}
	return id
}

// release returns a contiguous region of n nodes to the free list.
func (t *Tree[V]) release(first int32, n int) {
	if t.free == nil {
		t.free = make(map[int][]int32)
	}
	t.free[n] = append(t.free[n], first)
}

func (t *Tree[V]) resetNode(id int32) {
	t.nkeys[id] = 0
	t.leaf[id] = true
	t.first[id] = -1
	base := int(id) * t.k
	for j := 0; j < t.k; j++ {
		t.phead[base+j] = -1
		t.ptail[base+j] = -1
	}
}

// copyNode copies node src's slots into node dst.
func (t *Tree[V]) copyNode(dst, src int32) {
	db, sb := int(dst)*t.k, int(src)*t.k
	copy(t.keys[db:db+t.k], t.keys[sb:sb+t.k])
	copy(t.phead[db:db+t.k], t.phead[sb:sb+t.k])
	copy(t.ptail[db:db+t.k], t.ptail[sb:sb+t.k])
	t.nkeys[dst] = t.nkeys[src]
	t.leaf[dst] = t.leaf[src]
	t.first[dst] = t.first[src]
}

func (t *Tree[V]) newPosting(tid int32) int32 {
	t.postings = append(t.postings, posting{tid: tid, next: -1})
	return int32(len(t.postings) - 1)
}

// Insert adds one (value, tid) pair.  Duplicate values extend the value's
// posting list in insertion order.
func (t *Tree[V]) Insert(v V, tid int32) {
	if tid < 0 {
		panic(fmt.Sprintf("csbtree: negative tuple id %d", tid))
	}
	if t.root < 0 {
		t.root = t.alloc(1)
		t.leaf[t.root] = true
	}
	promoted, sep, right := t.insert(t.root, v, tid)
	if !promoted {
		return
	}
	// Root split: the two halves become a fresh contiguous group under a
	// new root.
	g := t.alloc(2)
	t.copyNode(g, t.root)
	t.copyNode(g+1, right)
	nr := t.alloc(1)
	t.leaf[nr] = false
	t.nkeys[nr] = 1
	t.keys[int(nr)*t.k] = sep
	t.first[nr] = g
	t.release(t.root, 1)
	t.release(right, 1)
	t.root = nr
}

func (t *Tree[V]) insert(n int32, v V, tid int32) (bool, V, int32) {
	if t.leaf[n] {
		return t.insertLeaf(n, v, tid)
	}
	return t.insertInternal(n, v, tid)
}

func (t *Tree[V]) insertLeaf(n int32, v V, tid int32) (bool, V, int32) {
	var zero V
	base := int(n) * t.k
	m := int(t.nkeys[n])
	lo, hi := 0, m
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keys[base+mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	if pos < m && t.keys[base+pos] == v {
		p := t.newPosting(tid)
		t.postings[t.ptail[base+pos]].next = p
		t.ptail[base+pos] = p
		t.total++
		return false, zero, -1
	}
	t.unique++
	t.total++
	p := t.newPosting(tid)
	if m < t.k {
		for i := m; i > pos; i-- {
			t.keys[base+i] = t.keys[base+i-1]
			t.phead[base+i] = t.phead[base+i-1]
			t.ptail[base+i] = t.ptail[base+i-1]
		}
		t.keys[base+pos] = v
		t.phead[base+pos] = p
		t.ptail[base+pos] = p
		t.nkeys[n] = int32(m + 1)
		return false, zero, -1
	}

	// Leaf split: k existing keys plus the new one are redistributed; the
	// separator is the first key of the right half.
	tk := make([]V, 0, t.k+1)
	th := make([]int32, 0, t.k+1)
	tt := make([]int32, 0, t.k+1)
	for i := 0; i < m; i++ {
		if i == pos {
			tk, th, tt = append(tk, v), append(th, p), append(tt, p)
		}
		tk = append(tk, t.keys[base+i])
		th = append(th, t.phead[base+i])
		tt = append(tt, t.ptail[base+i])
	}
	if pos == m {
		tk, th, tt = append(tk, v), append(th, p), append(tt, p)
	}
	rid := t.alloc(1) // may grow arenas; index math below re-derefs t.keys etc.
	t.leaf[rid] = true
	left := (t.k + 2) / 2 // ceil((k+1)/2)
	base = int(n) * t.k
	rbase := int(rid) * t.k
	for i := 0; i < left; i++ {
		t.keys[base+i] = tk[i]
		t.phead[base+i] = th[i]
		t.ptail[base+i] = tt[i]
	}
	// Clear stale upper slots of the left leaf so posting heads do not leak.
	for i := left; i < t.k; i++ {
		t.phead[base+i] = -1
		t.ptail[base+i] = -1
	}
	t.nkeys[n] = int32(left)
	rcount := t.k + 1 - left
	for i := 0; i < rcount; i++ {
		t.keys[rbase+i] = tk[left+i]
		t.phead[rbase+i] = th[left+i]
		t.ptail[rbase+i] = tt[left+i]
	}
	t.nkeys[rid] = int32(rcount)
	return true, tk[left], rid
}

func (t *Tree[V]) insertInternal(n int32, v V, tid int32) (bool, V, int32) {
	var zero V
	base := int(n) * t.k
	m := int(t.nkeys[n])
	// Child index: number of separator keys <= v (values equal to a
	// separator live in the right subtree, because the separator is the
	// minimum of the right half after a split).
	lo, hi := 0, m
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keys[base+mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ci := lo
	child := t.first[n] + int32(ci)
	promoted, sep, right := t.insert(child, v, tid)
	if !promoted {
		return false, zero, -1
	}

	// CSB+ group reallocation: the child group grows from m+1 to m+2
	// nodes and must stay contiguous, so it is rebuilt at the arena tail.
	oldFirst := t.first[n]
	ng := t.alloc(m + 2)
	for i := 0; i <= ci; i++ {
		t.copyNode(ng+int32(i), oldFirst+int32(i))
	}
	t.copyNode(ng+int32(ci+1), right)
	for i := ci + 1; i <= m; i++ {
		t.copyNode(ng+int32(i+1), oldFirst+int32(i))
	}
	t.first[n] = ng
	t.release(oldFirst, m+1)
	t.release(right, 1)

	base = int(n) * t.k
	if m < t.k {
		for i := m; i > ci; i-- {
			t.keys[base+i] = t.keys[base+i-1]
		}
		t.keys[base+ci] = sep
		t.nkeys[n] = int32(m + 1)
		return false, zero, -1
	}

	// Internal split: k+1 separator keys and k+2 children.  The two halves
	// keep pointing into the freshly built group ng, each half's children
	// remaining contiguous.
	tmp := make([]V, 0, t.k+1)
	tmp = append(tmp, t.keys[base:base+ci]...)
	tmp = append(tmp, sep)
	tmp = append(tmp, t.keys[base+ci:base+m]...)
	lk := (t.k + 1) / 2 // keys kept left; tmp[lk] is promoted
	rid := t.alloc(1)
	base = int(n) * t.k
	rbase := int(rid) * t.k
	for i := 0; i < lk; i++ {
		t.keys[base+i] = tmp[i]
	}
	t.nkeys[n] = int32(lk)
	rk := t.k - lk // = (k+1) - lk - 1
	for i := 0; i < rk; i++ {
		t.keys[rbase+i] = tmp[lk+1+i]
	}
	t.nkeys[rid] = int32(rk)
	t.leaf[rid] = false
	t.first[rid] = ng + int32(lk+1)
	return true, tmp[lk], rid
}

// Find returns the tuple IDs recorded for v in insertion order.
func (t *Tree[V]) Find(v V) ([]int32, bool) {
	n := t.root
	if n < 0 {
		return nil, false
	}
	for !t.leaf[n] {
		base := int(n) * t.k
		m := int(t.nkeys[n])
		lo, hi := 0, m
		for lo < hi {
			mid := (lo + hi) / 2
			if t.keys[base+mid] <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		n = t.first[n] + int32(lo)
	}
	base := int(n) * t.k
	m := int(t.nkeys[n])
	lo, hi := 0, m
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keys[base+mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= m || t.keys[base+lo] != v {
		return nil, false
	}
	var tids []int32
	for p := t.phead[base+lo]; p >= 0; p = t.postings[p].next {
		tids = append(tids, t.postings[p].tid)
	}
	return tids, true
}

// Ascend performs the in-order leaf traversal of Step 1(a): fn is called
// once per distinct value in ascending order with the value's tuple IDs in
// insertion order.  The tids slice is reused between calls; fn must not
// retain it.  Traversal stops early if fn returns false.
func (t *Tree[V]) Ascend(fn func(v V, tids []int32) bool) {
	if t.root < 0 {
		return
	}
	buf := make([]int32, 0, 16)
	t.ascend(t.root, &buf, fn)
}

func (t *Tree[V]) ascend(n int32, buf *[]int32, fn func(v V, tids []int32) bool) bool {
	if t.leaf[n] {
		base := int(n) * t.k
		for i := 0; i < int(t.nkeys[n]); i++ {
			b := (*buf)[:0]
			for p := t.phead[base+i]; p >= 0; p = t.postings[p].next {
				b = append(b, t.postings[p].tid)
			}
			*buf = b
			if !fn(t.keys[base+i], b) {
				return false
			}
		}
		return true
	}
	m := int(t.nkeys[n])
	for i := 0; i <= m; i++ {
		if !t.ascend(t.first[n]+int32(i), buf, fn) {
			return false
		}
	}
	return true
}

// AscendRange is Ascend bounded to distinct values in [lo, hi], both
// inclusive: fn is called once per distinct value in ascending order with
// the value's tuple IDs in insertion order.  Subtrees wholly outside the
// bounds are never visited, so a selective probe costs O(log n + k) — this
// is the delta-side complement of the main partition's group-key index.
// The tids slice is reused between calls; fn must not retain it.
// Traversal stops early if fn returns false.
func (t *Tree[V]) AscendRange(lo, hi V, fn func(v V, tids []int32) bool) {
	if t.root < 0 || hi < lo {
		return
	}
	buf := make([]int32, 0, 16)
	t.ascendRange(t.root, lo, hi, &buf, fn)
}

func (t *Tree[V]) ascendRange(n int32, lo, hi V, buf *[]int32, fn func(v V, tids []int32) bool) bool {
	base := int(n) * t.k
	m := int(t.nkeys[n])
	if t.leaf[n] {
		// First key >= lo, then iterate while keys stay <= hi.
		i, j := 0, m
		for i < j {
			mid := (i + j) / 2
			if t.keys[base+mid] < lo {
				i = mid + 1
			} else {
				j = mid
			}
		}
		for ; i < m && t.keys[base+i] <= hi; i++ {
			b := (*buf)[:0]
			for p := t.phead[base+i]; p >= 0; p = t.postings[p].next {
				b = append(b, t.postings[p].tid)
			}
			*buf = b
			if !fn(t.keys[base+i], b) {
				return false
			}
		}
		return true
	}
	// Child index for a bound v is the number of separators <= v (same rule
	// as Find): left siblings of that child hold only values strictly below
	// the preceding separator, right siblings only values above it.
	lc := t.childIndex(base, m, lo)
	hc := t.childIndex(base, m, hi)
	for i := lc; i <= hc; i++ {
		if !t.ascendRange(t.first[n]+int32(i), lo, hi, buf, fn) {
			return false
		}
	}
	return true
}

// childIndex returns the number of separator keys <= v in a node whose key
// slots start at base and hold m separators.
func (t *Tree[V]) childIndex(base, m int, v V) int {
	lo, hi := 0, m
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keys[base+mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Depth returns the number of levels (0 for an empty tree).
func (t *Tree[V]) Depth() int {
	if t.root < 0 {
		return 0
	}
	d := 1
	n := t.root
	for !t.leaf[n] {
		n = t.first[n]
		d++
	}
	return d
}
