package table

import "hyrise/internal/val"

// tcol reads one typed column of a test table the way the store's typed
// handles read a partition: every value read is one Plan through Read,
// and Get, ScanAt and Distinct are the typed functions.
type tcol[V val.Value] struct {
	t   *Table
	col int
}

func colOf[V val.Value](t *Table, name string) (*tcol[V], error) {
	col, err := ColumnIndex[V](t, name)
	if err != nil {
		return nil, err
	}
	return &tcol[V]{t, col}, nil
}

func (c *tcol[V]) read(view View, p Plan) *Selection {
	s, err := c.t.Read(view, p)
	if err != nil {
		panic(err)
	}
	return s
}

func (c *tcol[V]) Get(row int) (V, error) { return Get[V](c.t, c.col, row) }
func (c *tcol[V]) Lookup(v V) []int       { return c.LookupAt(Latest(), v) }
func (c *tcol[V]) LookupAt(view View, v V) []int {
	return c.read(view, Plan{Preds: []Pred{{Col: c.col, Lo: v}}}).Rows
}
func (c *tcol[V]) Range(lo, hi V) []int { return c.RangeAt(Latest(), lo, hi) }
func (c *tcol[V]) RangeAt(view View, lo, hi V) []int {
	return c.read(view, Plan{Preds: []Pred{{Col: c.col, Range: true, Lo: lo, Hi: hi}}}).Rows
}
func (c *tcol[V]) CountEqual(v V) int { return c.CountEqualAt(Latest(), v) }
func (c *tcol[V]) CountEqualAt(view View, v V) int {
	return c.read(view, Plan{Preds: []Pred{{Col: c.col, Lo: v}}, Reduce: Count}).Count
}
func (c *tcol[V]) Scan(fn func(row int, v V) bool) { c.ScanAt(Latest(), fn) }
func (c *tcol[V]) ScanAt(view View, fn func(row int, v V) bool) {
	if _, err := ScanAt(c.t, view, c.col, fn); err != nil {
		panic(err)
	}
}

// visibleAt is Table.VisibleAt for a view the GC has not passed.
func visibleAt(t *Table, v View, row int) bool {
	ok, err := t.VisibleAt(v, row)
	if err != nil {
		panic(err)
	}
	return ok
}
func (c *tcol[V]) Distinct() int {
	seen := map[V]struct{}{}
	AddDistinct(c.t, c.col, seen)
	return len(seen)
}
func (c *tcol[V]) Sum() uint64            { return c.SumAt(Latest()) }
func (c *tcol[V]) SumAt(view View) uint64 { return c.read(view, Plan{Reduce: Sum, Col: c.col}).Sum }
func (c *tcol[V]) Min() (V, bool)         { return c.MinAt(Latest()) }
func (c *tcol[V]) Max() (V, bool)         { return c.MaxAt(Latest()) }
func (c *tcol[V]) MinAt(view View) (V, bool) {
	s := c.read(view, Plan{Reduce: MinMax, Col: c.col})
	return c.num(s.Min), s.Found
}
func (c *tcol[V]) MaxAt(view View) (V, bool) {
	s := c.read(view, Plan{Reduce: MinMax, Col: c.col})
	return c.num(s.Max), s.Found
}

// num converts an integer extreme back to the column's type.
func (c *tcol[V]) num(x uint64) V {
	v, _ := Convert(c.t.schema[c.col].Type, x)
	return v.(V)
}
