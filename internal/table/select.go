package table

import (
	"errors"
	"fmt"
	"math"

	"hyrise/internal/kernel"
	"hyrise/internal/val"
)

// Pred is one predicate of a conjunctive Select: the value of column Col
// equals Lo or, when Range is set, lies in [Lo, Hi].  Lo and Hi take every
// spelling Insert accepts for the column (Convert), range checks included.
type Pred struct {
	Col    int
	Range  bool
	Lo, Hi any
}

// Selection is the result of Select.
type Selection struct {
	// Rows are the matching row ids in ascending order.
	Rows []int
	// Values[i] holds the projected values of Rows[i]; nil without a
	// projection.
	Values [][]any
	// Estimate is the driving predicate's estimated candidate rows and
	// Indexed whether a group-key index served it; Seeded is the number of
	// visible candidates it produced.
	Estimate int
	Indexed  bool
	Seeded   int
}

// Select evaluates the conjunction of preds against the rows visible at
// the view's epoch and projects the columns at the indices in project
// (nil skips the projection), column at a time (paper §3, [10]).  The
// implicit row offset is valid for every attribute, so the whole query
// runs on slot positions: one driving predicate produces the visible
// candidate positions from its own column (match), every other predicate
// keeps the positions whose code lies in its code interval on the
// order-preserving dictionary (a value comparison in the deltas), and only
// the surviving positions are decoded and mapped to row ids.
//
// Every step runs under one hold of the table's read lock, so a latest
// view reads one state without a pin: no write, merge commit or
// reclamation can land between the steps.
func (t *Table) Select(view View, preds []Pred, project []int) (*Selection, error) {
	if len(preds) == 0 {
		return nil, errors.New("table: Select needs a predicate")
	}
	for _, ci := range project {
		if ci < 0 || ci >= len(t.cols) {
			return nil, fmt.Errorf("%w: index %d", ErrNoColumn, ci)
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	conds, err := t.bind(preds)
	if err != nil {
		return nil, err
	}
	drive, est, indexed := t.chooseSeed(conds)
	slots := conds[drive].seed(t, view.resolve())
	s := &Selection{Estimate: est, Indexed: indexed, Seeded: len(slots)}
	for i, c := range conds {
		if i != drive {
			slots = c.refine(slots)
		}
	}
	if project != nil && len(slots) > 0 {
		k := len(project)
		flat := make([]any, len(slots)*k)
		s.Values = make([][]any, len(slots))
		for i := range s.Values {
			s.Values[i] = flat[i*k : (i+1)*k : (i+1)*k]
		}
		for j, ci := range project {
			col := t.cols[ci]
			for i, slot := range slots {
				s.Values[i][j] = col.get(slot)
			}
		}
	}
	s.Rows = t.idsOf(slots)
	return s, nil
}

// bind binds every predicate to its column (t.mu held), so a bad one fails
// the query before any scan.
func (t *Table) bind(preds []Pred) ([]cond, error) {
	conds := make([]cond, len(preds))
	for i, p := range preds {
		if p.Col < 0 || p.Col >= len(t.cols) {
			return nil, fmt.Errorf("%w: index %d", ErrNoColumn, p.Col)
		}
		c, err := t.cols[p.Col].bind(p)
		if err != nil {
			return nil, err
		}
		conds[i] = c
	}
	return conds, nil
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
}

type typedCond[V val.Value] struct {
	c      *typedColumn[V]
	rng    bool
	lo, hi V // hi == lo for an equality
	// The main codes that match: [cLo, cHi), empty when cLo >= cHi.  The
	// dictionary is sorted, so an equality's interval is [code, code+1),
	// or empty when the main holds no such value.
	cLo, cHi uint64
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
	return &typedCond[V]{c: c, rng: p.Range, lo: lo, hi: hi,
		cLo: uint64(d.LowerBound(lo)), cHi: uint64(d.UpperBound(hi))}, nil
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
		for _, d := range q.c.deltas {
			tids, _ := d.Find(q.lo)
			rows += len(tids)
		}
	case card > 0:
		rows += nd * span / card
	case q.lo <= q.hi:
		rows += nd
	}
	return rows, p != nil
}

func (q *typedCond[V]) seed(t *Table, e uint64) []int {
	return q.c.match(t, e, q.rng, q.lo, q.hi)
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

// match returns the slots visible at epoch e whose value equals lo or, when
// rng is set, lies in [lo, hi], in ascending order (t.mu held).  It is the
// one positional match of LookupAt, RangeAt and Select's seed.  The main
// is matched through its group-key index when it has one and by the scan
// kernels otherwise (split across cores on a large main), then filtered
// for visibility unless every main row is visible at e.  The deltas are
// matched through their CSB+ trees, except for a range on an unindexed
// column, which scans the delta values.
func (c *typedColumn[V]) match(t *Table, e uint64, rng bool, lo, hi V) []int {
	indexed := c.main.Index() != nil
	var sel []int32
	switch {
	case indexed && rng:
		sel = c.main.SelRangeIndexed(lo, hi, nil)
	case indexed:
		sel = c.main.SelEqualIndexed(lo, nil)
	case rng:
		sel = c.main.SelRange(lo, hi, nil)
	default:
		sel = c.main.SelEqual(lo, nil)
	}
	if indexed {
		t.routeIndexed.Add(1)
	} else {
		t.routeScanned.Add(1)
	}
	begin, end := t.mainEpochs(e)
	var slots []int
	for _, p := range kernel.FilterVisible(sel, begin, end, e) {
		slots = append(slots, int(p))
	}
	base := c.main.Len()
	for _, d := range c.deltas {
		var tids []int32
		switch {
		case !rng:
			tids, _ = d.Find(lo)
		case indexed:
			// FindRange returns ascending positions, so the order matches
			// the value scan below exactly.
			tids = d.FindRange(lo, hi, nil)
		default:
			for i, v := range d.Values() {
				if v >= lo && v <= hi && t.epochs.VisibleAt(base+i, e) {
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
