package table

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// runQuery plans filters and project on the partition's schema and reads
// the plan at the latest view.
func runQuery(tb *Table, filters []Filter, project []string) (*Selection, error) {
	p, err := tb.Schema().Plan(filters, project)
	if err != nil {
		return nil, err
	}
	return tb.Read(Latest(), p)
}

func buildOrders(t *testing.T, n int, merge bool) *Table {
	t.Helper()
	tb, err := New("orders", Schema{
		{Name: "customer", Type: Uint64},
		{Name: "qty", Type: Uint32},
		{Name: "product", Type: String},
	})
	if err != nil {
		t.Fatal(err)
	}
	products := []string{"widget", "gadget", "sprocket"}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < n; i++ {
		_, err := tb.Insert([]any{
			uint64(rng.Intn(50)),
			uint32(rng.Intn(20)),
			products[rng.Intn(len(products))],
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if merge {
		if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// refFilter evaluates filters the slow, obviously-correct way.
func refFilter(t *testing.T, tb *Table, match func(row []any) bool) []int {
	t.Helper()
	var out []int
	for r := 0; r < tb.Rows(); r++ {
		if !tb.IsValid(r) {
			continue
		}
		row, err := tb.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		if match(row) {
			out = append(out, r)
		}
	}
	return out
}

func sameRows(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows %v want %v", got, want)
		}
	}
}

func TestSingleEq(t *testing.T) {
	for _, merged := range []bool{false, true} {
		tb := buildOrders(t, 2000, merged)
		res, err := runQuery(tb, []Filter{{Column: "customer", Op: Eq, Value: uint64(7)}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := refFilter(t, tb, func(row []any) bool { return row[0].(uint64) == 7 })
		sameRows(t, res.Rows, want)
	}
}

func TestConjunction(t *testing.T) {
	for _, merged := range []bool{false, true} {
		tb := buildOrders(t, 3000, merged)
		res, err := runQuery(tb, []Filter{
			{Column: "product", Op: Eq, Value: "widget"},
			{Column: "qty", Op: Between, Value: uint32(5), Hi: uint32(10)},
			{Column: "customer", Op: Between, Value: uint64(0), Hi: uint64(25)},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := refFilter(t, tb, func(row []any) bool {
			return row[2].(string) == "widget" &&
				row[1].(uint32) >= 5 && row[1].(uint32) <= 10 &&
				row[0].(uint64) <= 25
		})
		sameRows(t, res.Rows, want)
		if len(res.Rows) != len(want) {
			t.Fatalf("Count=%d", len(res.Rows))
		}
	}
}

func TestRangeDriven(t *testing.T) {
	// No equality filter: a range predicate drives.
	tb := buildOrders(t, 1500, true)
	res, err := runQuery(tb, []Filter{
		{Column: "customer", Op: Between, Value: uint64(10), Hi: uint64(20)},
		{Column: "qty", Op: Between, Value: uint32(0), Hi: uint32(5)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := refFilter(t, tb, func(row []any) bool {
		c, q := row[0].(uint64), row[1].(uint32)
		return c >= 10 && c <= 20 && q <= 5
	})
	sameRows(t, res.Rows, want)
}

func TestProjection(t *testing.T) {
	tb := buildOrders(t, 500, true)
	res, err := runQuery(tb, []Filter{
		{Column: "customer", Op: Eq, Value: uint64(3)},
	}, []string{"product", "qty"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != len(res.Rows) || len(res.Values[0]) != 2 {
		t.Fatalf("projection shape: %+v", res)
	}
	for i, r := range res.Rows {
		row, _ := tb.Row(r)
		if res.Values[i][0] != row[2] || res.Values[i][1] != row[1] {
			t.Fatalf("projected values %v vs row %v", res.Values[i], row)
		}
	}
}

func TestRespectsinvalidations(t *testing.T) {
	tb := buildOrders(t, 300, false)
	res, _ := runQuery(tb, []Filter{{Column: "product", Op: Eq, Value: "gadget"}}, nil)
	if len(res.Rows) == 0 {
		t.Skip("no gadgets in sample")
	}
	victim := res.Rows[0]
	if err := tb.Delete(victim); err != nil {
		t.Fatal(err)
	}
	res2, _ := runQuery(tb, []Filter{{Column: "product", Op: Eq, Value: "gadget"}}, nil)
	if len(res2.Rows) != len(res.Rows)-1 {
		t.Fatalf("count %d want %d", len(res2.Rows), len(res.Rows)-1)
	}
	for _, r := range res2.Rows {
		if r == victim {
			t.Fatal("deleted row returned")
		}
	}
}

func TestSpansMainAndDelta(t *testing.T) {
	tb := buildOrders(t, 1000, true) // main
	// Add delta rows with a known key.
	tb.Insert([]any{uint64(7), uint32(3), "widget"})
	tb.Insert([]any{uint64(7), uint32(18), "gadget"})
	res, err := runQuery(tb, []Filter{
		{Column: "customer", Op: Eq, Value: uint64(7)},
		{Column: "product", Op: Eq, Value: "widget"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := refFilter(t, tb, func(row []any) bool {
		return row[0].(uint64) == 7 && row[2].(string) == "widget"
	})
	sameRows(t, res.Rows, want)
}

func TestErrors(t *testing.T) {
	tb := buildOrders(t, 10, false)
	cases := []struct {
		name    string
		filters []Filter
		project []string
	}{
		{"no filters", nil, nil},
		{"bad column", []Filter{{Column: "nope", Op: Eq, Value: uint64(1)}}, nil},
		{"bad type", []Filter{{Column: "customer", Op: Eq, Value: "str"}}, nil},
		{"nil value", []Filter{{Column: "customer", Op: Eq}}, nil},
		{"bad projection", []Filter{{Column: "customer", Op: Eq, Value: uint64(1)}}, []string{"nope"}},
		{"bad hi", []Filter{{Column: "customer", Op: Between, Value: uint64(1), Hi: "x"}}, nil},
		{"bad op", []Filter{{Column: "customer", Op: Op(7), Value: uint64(1)}}, nil},
	}
	for _, c := range cases {
		_, err := runQuery(tb, c.filters, c.project)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if bad := c.name == "bad column" || c.name == "bad projection"; bad != errors.Is(err, ErrNoColumn) {
			t.Errorf("%s: %v, ErrNoColumn %v", c.name, err, bad)
		}
	}
}

func TestIntLiteralCoercion(t *testing.T) {
	tb := buildOrders(t, 200, true)
	a, err := runQuery(tb, []Filter{{Column: "customer", Op: Eq, Value: 7}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := runQuery(tb, []Filter{{Column: "customer", Op: Eq, Value: uint64(7)}}, nil)
	sameRows(t, a.Rows, b.Rows)
	// qty is uint32; int literal works there too.
	if _, err := runQuery(tb, []Filter{{Column: "qty", Op: Eq, Value: 3}}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReversedBetween: a Between whose bounds are reversed matches nothing
// and estimates nothing, on an indexed and an unindexed column alike: the
// read runs its one seed phase with an estimate of 0.
func TestReversedBetween(t *testing.T) {
	tb := buildOrders(t, 2000, true)
	if err := tb.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	tb.Insert([]any{uint64(3), uint32(4), "widget"}) // a delta row too
	for _, f := range []Filter{
		{Column: "customer", Op: Between, Value: uint64(40), Hi: uint64(10)},
		{Column: "qty", Op: Between, Value: uint32(15), Hi: uint32(2)},
	} {
		res, err := runQuery(tb, []Filter{f}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s: %d rows, want 0", f.Column, len(res.Rows))
		}
		if res.Seeds != 1 || res.Estimate != 0 {
			t.Errorf("%s: %d seed phases estimating %d rows, want 1 estimating 0", f.Column, res.Seeds, res.Estimate)
		}
	}
}

var benchRows int

// BenchmarkConjunctiveQuery drives an equality and a range over a merged
// 200 000-row main, returning row ids only and with one column projected.
func BenchmarkConjunctiveQuery(b *testing.B) {
	tb, _ := New("t", Schema{
		{Name: "a", Type: Uint64},
		{Name: "b", Type: Uint64},
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		tb.Insert([]any{rng.Uint64() % 1000, rng.Uint64() % 1000})
	}
	if _, err := tb.Merge(context.Background(), MergeOptions{}); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		project []string
	}{{"rows", nil}, {"project", []string{"b"}}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := runQuery(tb, []Filter{
					{Column: "a", Op: Eq, Value: uint64(i % 1000)},
					{Column: "b", Op: Between, Value: uint64(0), Hi: uint64(500)},
				}, bc.project)
				if err != nil {
					b.Fatal(err)
				}
				benchRows += len(res.Rows)
			}
		})
	}
}
