package hyrise_test

import (
	"fmt"
	"math"
	"testing"

	"hyrise"
)

// TestQueryCoercesLikeInsert pins one coercion rule for embedded callers:
// every spelling of a value Insert accepts for a column, Query and QueryAt
// accept in an Eq and a Between filter on it — and find the row — and every
// spelling Insert rejects they reject too.
func TestQueryCoercesLikeInsert(t *testing.T) {
	schema := hyrise.Schema{
		{Name: "u64", Type: hyrise.Uint64},
		{Name: "u32", Type: hyrise.Uint32},
		{Name: "str", Type: hyrise.String},
	}
	spellings := []any{
		5, int64(5), uint(5), uint32(5), uint64(5), "5",
		-1, int64(-1), int64(math.MaxUint32) + 1, uint64(math.MaxUint32) + 1, uint(math.MaxUint32) + 1,
		int32(5), int8(5), uint16(5), 5.0, true, nil, []byte("5"),
	}
	good := []any{uint64(1), uint32(1), "x"}
	for ci, def := range schema {
		for _, v := range spellings {
			t.Run(fmt.Sprintf("%s/%T(%v)", def.Name, v, v), func(t *testing.T) {
				for _, shards := range []int{1, 3} {
					st, err := hyrise.NewShardedTable("c", schema, "u64", shards)
					if err != nil {
						t.Fatal(err)
					}
					row := append([]any(nil), good...)
					row[ci] = v
					id, insertErr := st.Insert(row)
					view := st.Snapshot()
					defer view.Release()
					for name, f := range map[string]hyrise.Filter{
						"eq":      {Column: def.Name, Op: hyrise.FilterEq, Value: v},
						"between": {Column: def.Name, Op: hyrise.FilterBetween, Value: v, Hi: v},
					} {
						for at, res := range map[string]func() (*hyrise.QueryResult, error){
							"Query":   func() (*hyrise.QueryResult, error) { return hyrise.Query(st, []hyrise.Filter{f}, nil) },
							"QueryAt": func() (*hyrise.QueryResult, error) { return hyrise.QueryAt(st, view, []hyrise.Filter{f}, nil) },
						} {
							got, err := res()
							if (err == nil) != (insertErr == nil) {
								t.Fatalf("%d shards: Insert: %v, but %s %s: %v", shards, insertErr, at, name, err)
							}
							if err == nil && (len(got.Rows) != 1 || got.Rows[0] != id) {
								t.Fatalf("%d shards: %s %s found rows %v, inserted %d", shards, at, name, got.Rows, id)
							}
						}
					}
					// As a second predicate the value takes the refine path.
					if insertErr == nil {
						other := schema[(ci+1)%len(schema)].Name
						got, err := hyrise.Query(st, []hyrise.Filter{
							{Column: other, Op: hyrise.FilterEq, Value: good[(ci+1)%len(schema)]},
							{Column: def.Name, Op: hyrise.FilterEq, Value: v},
						}, nil)
						if err != nil || len(got.Rows) != 1 {
							t.Fatalf("%d shards: two-predicate query: %v, %v", shards, got, err)
						}
					}
				}
			})
		}
	}
}
