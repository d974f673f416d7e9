package table

import (
	"errors"
	"fmt"
	"math"

	"hyrise/internal/epoch"
	"hyrise/internal/kernel"
	"hyrise/internal/val"
)

// Pred is one predicate of a Plan: the value of column Col equals Lo or,
// when Range is set, lies in [Lo, Hi].  Lo and Hi take every spelling
// Insert accepts for the column (Convert), range checks included.
type Pred struct {
	Col    int
	Range  bool
	Lo, Hi any
}

// Reduce is what Read computes from the rows a plan matches.
type Reduce uint8

const (
	// Rows returns the matching row ids with the projected values.
	Rows Reduce = iota
	// Count returns how many rows match.
	Count
	// Sum returns the sum of an integer column over the matching rows.
	Sum
	// MinMax returns an integer column's extremes over the matching rows.
	MinMax
)

// Plan is one read of a partition: the conjunction of Preds, where no
// predicate matches every visible row, reduced by Reduce.
type Plan struct {
	Preds  []Pred
	Reduce Reduce
	// Col is the column Sum and MinMax aggregate.
	Col int
	// Project lists the columns whose values Rows returns, in order (nil
	// projects nothing); Limit caps the rows it returns (0 returns all).
	Project []int
	Limit   int
}

// Op is a Filter's operator.
type Op int

const (
	// Eq matches rows whose column value equals Value.
	Eq Op = iota
	// Between matches rows whose column value lies in [Value, Hi].
	Between
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Between:
		return "between"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Filter is one predicate of a conjunctive query, on a column named.
// Value (and Hi for Between) may be spelled any way Insert accepts for the
// column (Convert): for an integer column uint32, uint64, uint, or a
// non-negative int or int64, within the column's range; for a string
// column a string.
type Filter struct {
	Column string
	Op     Op
	Value  any
	Hi     any
}

// Plan maps a conjunctive query onto column positions: one Pred per
// filter and the projected columns (nil projects nothing), reduced to
// Rows.  At least one filter is required; an unknown column is
// ErrNoColumn.
func (s Schema) Plan(filters []Filter, project []string) (Plan, error) {
	if len(filters) == 0 {
		return Plan{}, errors.New("table: query without filters (use a full-column scan instead)")
	}
	preds := make([]Pred, len(filters))
	for i, f := range filters {
		ci, err := s.Index(f.Column)
		if err != nil {
			return Plan{}, err
		}
		preds[i] = Pred{Col: ci, Lo: f.Value, Hi: f.Hi}
		switch f.Op {
		case Eq:
		case Between:
			preds[i].Range = true
		default:
			return Plan{}, fmt.Errorf("table: unknown filter op %v", f.Op)
		}
	}
	var cols []int
	if project != nil {
		cols = make([]int, len(project))
		for i, name := range project {
			ci, err := s.Index(name)
			if err != nil {
				return Plan{}, err
			}
			cols[i] = ci
		}
	}
	return Plan{Preds: preds, Project: cols}, nil
}

// Selection is the answer to a Plan: the field its reduction names.
type Selection struct {
	// Rows are the matching row ids in ascending order; Values[i] holds the
	// projected values of Rows[i], nil without a projection.
	Rows   []int
	Values [][]any
	Count  int
	Sum    uint64
	// Min and Max are the column's extremes; Found reports a match.
	Min, Max uint64
	Found    bool
	// The planner's account, summed over the partitions read: Seeds counts
	// the seed phases run (one per partition whose read chose a driving
	// predicate), Estimate their estimated candidate rows, Indexed those a
	// group-key index served, and Seeded the visible candidates they
	// produced.
	Seeds    int
	Estimate int
	Indexed  int
	Seeded   int
}

// Read evaluates the plan against the rows visible at the view's epoch.
// The implicit row offset is valid for every attribute (paper §3, [10]),
// so the whole read runs on slot positions: each predicate is bound once
// to its column, one driving predicate picked by estimated cost
// (chooseSeed) produces the visible candidate positions from its own
// column, every other predicate keeps those whose code lies in its code
// interval on the order-preserving dictionary (a value comparison in the
// deltas), and only then is the reduction applied, projected values
// decoded column at a time.  A count of one equality or of every visible
// row and a Sum or MinMax of every visible row run fused kernels that
// materialize no position.
//
// Every step runs under one hold of the table's read lock, so a latest
// view reads one state without a pin: no write, merge commit or
// reclamation can land between the steps.  A view the GC has passed fails
// with ErrReclaimed (View).
func (t *Table) Read(view View, p Plan) (*Selection, error) {
	cols := p.Project
	if p.Reduce == Sum || p.Reduce == MinMax {
		cols = []int{p.Col}
	}
	for _, ci := range cols {
		if _, err := t.column(ci); err != nil {
			return nil, err
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.checkView(view); err != nil {
		return nil, err
	}
	// Bound before any scan.
	var buf [4]cond // a plan's few predicates bind without an allocation
	conds := buf[:0]
	for _, pr := range p.Preds {
		col, err := t.column(pr.Col)
		if err != nil {
			return nil, err
		}
		c, err := col.bind(pr)
		if err != nil {
			return nil, err
		}
		conds = append(conds, c)
	}
	e := view.resolve()
	s := &Selection{}
	var slots []int
	all := len(conds) == 0
	switch {
	case all && p.Reduce == Count:
		s.Count = t.countVisible(e)
		return s, nil
	case all && p.Reduce == Rows:
		slots = t.visibleSlots(e)
	case all: // aggregated by the fused kernels, no slot materialized
	case len(conds) == 1 && p.Reduce == Count && !p.Preds[0].Range:
		s.Count = conds[0].count(t, e)
		return s, nil
	default:
		drive, est, indexed := t.chooseSeed(conds)
		slots = conds[drive].seed(t, e)
		s.Seeds, s.Estimate, s.Seeded = 1, est, len(slots)
		if indexed {
			s.Indexed = 1
		}
		for i, c := range conds {
			if i != drive {
				slots = c.refine(slots)
			}
		}
	}
	switch p.Reduce {
	case Count:
		s.Count = len(slots)
	case Sum, MinMax:
		return s, t.cols[p.Col].aggregate(t, e, slots, all, p.Reduce == MinMax, s)
	default:
		if p.Limit > 0 && len(slots) > p.Limit {
			slots = slots[:p.Limit]
		}
		s.Values = t.project(slots, p.Project)
		s.Rows = t.idsOf(slots)
	}
	return s, nil
}

// column returns the column at index ci.
func (t *Table) column(ci int) (column, error) {
	if ci < 0 || ci >= len(t.cols) {
		return nil, fmt.Errorf("%w: index %d", ErrNoColumn, ci)
	}
	return t.cols[ci], nil
}

// chooseSeed picks the driving predicate by estimated cost and returns it
// with its estimate (t.mu held): the estimated candidate-set size (exact
// posting-list counts on indexed columns, a uniform-distribution guess via
// the dictionary spread otherwise), plus the cost of producing it — a scan
// over the stored rows unless the column is indexed.  An indexed equality
// on a narrow value therefore beats any scan, and among unindexed
// predicates the narrowest dictionary spread wins.
func (t *Table) chooseSeed(conds []cond) (drive, est int, indexed bool) {
	// Producing a seed without an index scans main codes word-at-a-time,
	// 64/E_C codes per step at every code width E_C (cheap per row), and
	// probes the delta trees; charge the scan at a fraction of a row each,
	// so a small expected result on an unindexed column still beats a
	// large one on an indexed column.
	scanCost := float64(t.cols[0].mainLen())/8 + float64(t.cols[0].deltaLen())
	bestCost := math.Inf(1)
	for i, c := range conds {
		rows, idx := c.estimate()
		cost := float64(rows)
		if !idx {
			cost += scanCost
		}
		if cost < bestCost {
			drive, est, indexed, bestCost = i, rows, idx, cost
		}
	}
	return drive, est, indexed
}

// countVisible returns the number of rows visible at epoch e (t.mu held):
// the main's from its bitmap, with no per-row test, the delta's from its
// epochs.
func (t *Table) countVisible(e uint64) int {
	if e == epoch.Latest {
		return t.rows - t.epochs.Dead()
	}
	begin, end := t.epochs.Delta()
	return kernel.CountMain(t.epochs.MainAt(e)) + kernel.CountVisible(begin, end, e, 0, len(end))
}

// visibleSlots returns the slots visible at epoch e, ascending (t.mu held).
func (t *Table) visibleSlots(e uint64) []int {
	k, hide := t.epochs.MainAt(e)
	sel := kernel.SelectMain(k, hide, nil)
	nm, inMain := t.epochs.MainLen(), len(sel)
	begin, end := t.epochs.Delta()
	sel = kernel.SelectVisible(begin, end, e, 0, len(end), sel)
	slots := make([]int, len(sel))
	for i, p := range sel {
		slots[i] = int(p)
		if i >= inMain {
			slots[i] += nm // a delta position counts from the first delta slot
		}
	}
	return slots
}

// project decodes the projected columns of every slot, column at a time,
// into one backing array; nil without a projection or a slot (t.mu held).
func (t *Table) project(slots []int, project []int) [][]any {
	if project == nil || len(slots) == 0 {
		return nil
	}
	k := len(project)
	flat := make([]any, len(slots)*k)
	values := make([][]any, len(slots))
	for i := range values {
		values[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	for j, ci := range project {
		col := t.cols[ci]
		for i, slot := range slots {
			values[i][j] = col.get(slot)
		}
	}
	return values
}

// idsOf maps slots to their stable row ids in place (t.mu held).
func (t *Table) idsOf(slots []int) []int {
	for i, s := range slots {
		slots[i] = t.ids[s]
	}
	return slots
}

// cond is one predicate bound to its column under t.mu: its values
// converted and the main codes that match it resolved.
type cond interface {
	estimate() (rows int, indexed bool)
	// seed returns the slots visible at epoch e that match, ascending.
	seed(t *Table, e uint64) []int
	// refine keeps the slots that match, in place.
	refine(slots []int) []int
	// count returns how many slots visible at e match an equality.
	count(t *Table, e uint64) int
}

type typedCond[V val.Value] struct {
	c      *typedColumn[V]
	rng    bool
	lo, hi V // hi == lo for an equality
	// The main codes that match: [cLo, cHi), empty when cLo >= cHi.  The
	// dictionary is sorted, so an equality's interval is [code, code+1),
	// or empty when the main holds no such value.
	cLo, cHi uint64
	// tids holds an equality's delta positions, found once for the estimate
	// and the seed; tidBuf backs one delta, or two during a merge.
	tids   [][]int32
	tidBuf [2][]int32
}

func (c *typedColumn[V]) bind(p Pred) (cond, error) {
	lo, err := c.convert(p.Lo)
	if err != nil {
		return nil, fmt.Errorf("column %q: %w", c.d.Name, err)
	}
	hi := lo
	if p.Range {
		if hi, err = c.convert(p.Hi); err != nil {
			return nil, fmt.Errorf("column %q: %w", c.d.Name, err)
		}
	}
	d := c.main.Dict()
	cLo := d.LowerBound(lo)
	q := &typedCond[V]{c: c, rng: p.Range, lo: lo, hi: hi, cLo: uint64(cLo), cHi: uint64(cLo)}
	switch {
	case p.Range:
		q.cHi = uint64(d.UpperBound(hi))
	case cLo < d.Len() && d.At(cLo) == lo:
		q.cHi++
	}
	if !p.Range {
		q.tids = q.tidBuf[:0]
		for _, d := range c.deltas {
			tids, _ := d.Find(lo)
			q.tids = append(q.tids, tids)
		}
	}
	return q, nil
}

// estimate returns how many row versions are expected to match, before
// visibility, and whether indexes (group-key main + CSB+ delta) rather
// than a scan would serve the seed.  The main's share is exact when
// indexed (O(1) via the posting starts); otherwise it assumes a uniform
// value distribution: the main rows per dictionary value for an equality,
// or the rows in proportion to the code interval for a range.  The deltas'
// share is exact for an equality and scaled by the same interval for a
// range.  A reversed range (lo > hi) has an empty interval and estimates 0.
func (q *typedCond[V]) estimate() (rows int, indexed bool) {
	m, card := q.c.main, q.c.main.Dict().Len()
	span := 0
	if q.cHi > q.cLo {
		span = int(q.cHi - q.cLo)
	}
	p := m.Index()
	switch {
	case p != nil:
		rows = p.CountRange(q.cLo, q.cHi)
	case card > 0 && !q.rng:
		rows = m.Len() / card
	case card > 0:
		rows = m.Len() * span / card
	}
	switch nd := q.c.deltaLen(); {
	case !q.rng:
		for _, tids := range q.tids {
			rows += len(tids)
		}
	case card > 0:
		rows += nd * span / card
	case q.lo <= q.hi:
		rows += nd
	}
	return rows, p != nil
}

// seed is the one positional match: the slots visible at epoch e whose
// value matches, in ascending order (t.mu held).  The main is matched on
// the bound code interval, through its group-key index when it has one and
// by the scan kernels otherwise (split across cores on a large main), then
// filtered by the main's visibility at e: the rows that began by e, less
// the dead bits, plus the dead rows e still sees — no copy of the bitmap,
// and nothing to test on a main with no dead row.  The
// deltas contribute an equality's positions found at bind, a range's
// through their CSB+ trees on an indexed column and by a value scan
// otherwise.
func (q *typedCond[V]) seed(t *Table, e uint64) []int {
	c := q.c
	p := c.main.Index()
	var sel []int32
	switch {
	case q.cLo >= q.cHi:
	case p != nil && q.rng:
		sel = p.Range(q.cLo, q.cHi, nil)
	case p != nil:
		sel = p.Equal(q.cLo, nil)
	case q.rng:
		sel = kernel.MatchRange(c.main.Codes(), q.cLo, q.cHi, nil)
	default:
		sel = kernel.MatchEqual(c.main.Codes(), q.cLo, nil)
	}
	if p != nil {
		t.routeIndexed.Add(1)
	} else {
		t.routeScanned.Add(1)
	}
	k, hide, seen := t.epochs.MainSeen(e)
	var slots []int
	for _, pos := range kernel.FilterMain(sel, k, hide, seen) {
		slots = append(slots, int(pos))
	}
	return q.deltaSlots(t, e, slots)
}

// deltaSlots appends to slots the delta slots visible at epoch e that
// match, ascending (t.mu held).
func (q *typedCond[V]) deltaSlots(t *Table, e uint64, slots []int) []int {
	base := q.c.main.Len()
	for i, d := range q.c.deltas {
		var tids []int32
		switch {
		case !q.rng:
			tids = q.tids[i]
		case q.c.main.Index() != nil:
			// FindRange returns ascending positions, so the order matches
			// the value scan below exactly.
			tids = d.FindRange(q.lo, q.hi, nil)
		default:
			for i, v := range d.Values() {
				if v >= q.lo && v <= q.hi && t.epochs.VisibleAt(base+i, e) {
					slots = append(slots, base+i)
				}
			}
		}
		for _, tid := range tids {
			if s := base + int(tid); t.epochs.VisibleAt(s, e) {
				slots = append(slots, s)
			}
		}
		base += d.Len()
	}
	return slots
}

// refine tests a main slot's code against the code interval, with no
// dictionary access, and a delta slot's value against [lo, hi].
func (q *typedCond[V]) refine(slots []int) []int {
	nm, codes := q.c.main.Len(), q.c.main.Codes()
	kept := slots[:0]
	for _, s := range slots {
		var ok bool
		if s < nm {
			code := codes.Get(s)
			ok = code >= q.cLo && code < q.cHi
		} else {
			v, _ := q.c.getTyped(s)
			ok = v >= q.lo && v <= q.hi
		}
		if ok {
			kept = append(kept, s)
		}
	}
	return kept
}

// count counts an equality's matches visible at epoch e (t.mu held): the
// main's by the fused match+visibility kernel, split across cores on a
// large main, or over its posting list — by matches alone when no main row
// is dead — and the deltas' among the positions found at bind.
func (q *typedCond[V]) count(t *Table, e uint64) int {
	c := q.c
	n := 0
	if q.cLo < q.cHi {
		if p := c.main.Index(); p != nil {
			// Bucket aliases the index, so the read-only counting kernel is
			// used rather than the in-place filter.
			t.routeIndexed.Add(1)
			k, hide, seen := t.epochs.MainSeen(e)
			n = kernel.CountSelMain(p.Bucket(q.cLo), k, hide, seen)
		} else {
			t.routeScanned.Add(1)
			k, hide := t.epochs.MainAt(e)
			n = kernel.CountEqual(c.main.Codes(), q.cLo, k, hide)
		}
	}
	return n + len(q.deltaSlots(t, e, nil))
}

// aggregate folds the column's values into s.Sum or, when minMax is set,
// s.Min, s.Max and s.Found (t.mu held): over the given slots, or over
// every row visible at epoch e when all is set.  Only integer columns
// aggregate; any other fails with ErrColumnType.
func (c *typedColumn[V]) aggregate(t *Table, e uint64, slots []int, all, minMax bool, s *Selection) error {
	switch ic := any(c).(type) {
	case *typedColumn[uint32]:
		aggregateInts(ic, t, e, slots, all, minMax, s)
	case *typedColumn[uint64]:
		aggregateInts(ic, t, e, slots, all, minMax, s)
	default:
		return fmt.Errorf("%w: %v column %q does not aggregate", ErrColumnType, c.d.Type, c.d.Name)
	}
	return nil
}

// aggregateInts is aggregate on an integer column.  Over every visible row
// the main is reduced by one fused decode-visibility-reduce kernel, split
// across cores on a large main, reading one hide bit per main row and none
// when no main row is dead; MinMaxVisible reduces over codes, as the
// main's min/max code IS its min/max value, and pays two dictionary
// accesses.  The delta values are read directly.
func aggregateInts[V ~uint32 | ~uint64](c *typedColumn[V], t *Table, e uint64, slots []int, all, minMax bool, s *Selection) {
	fold := func(v V) {
		x := uint64(v)
		switch {
		case !minMax:
			s.Sum += x
		case !s.Found:
			s.Min, s.Max, s.Found = x, x, true
		default:
			s.Min, s.Max = min(s.Min, x), max(s.Max, x)
		}
	}
	if !all {
		for _, slot := range slots {
			v, _ := c.getTyped(slot)
			fold(v)
		}
		return
	}
	k, hide := t.epochs.MainAt(e)
	if !minMax {
		s.Sum = kernel.SumVisible(c.main.Codes(), c.main.Dict().Values(), k, hide)
	} else if cMin, cMax, ok := kernel.MinMaxVisible(c.main.Codes(), k, hide); ok {
		d := c.main.Dict()
		fold(d.At(int(cMin)))
		fold(d.At(int(cMax)))
	}
	begin, end := t.epochs.Delta()
	base := 0
	for _, d := range c.deltas {
		for i, v := range d.Values() {
			if begin[base+i] <= e && end[base+i]-1 >= e {
				fold(v)
			}
		}
		base += d.Len()
	}
}
