package server

import (
	"testing"

	"hyrise/internal/wire"
)

// TestColumnTypeStatus: over the raw wire, a value the column's type cannot
// hold answers wire.StatusErrColumnType on every read opcode that takes
// one — OpLookup, OpRange, OpCountEqual and OpQuery alike — as does an
// aggregate over a string column.
func TestColumnTypeStatus(t *testing.T) {
	srv := New(fuzzStore(t), Options{})
	req := func(op uint8, col string) *wire.Buffer {
		var b wire.Buffer
		b.U8(op)
		b.U64(0) // latest
		if col != "" {
			b.String(col)
		}
		return &b
	}
	lookup := req(wire.OpLookup, "order_id")
	lookup.Value("7")
	rng := req(wire.OpRange, "order_id")
	rng.Value(uint64(1))
	rng.Value("9")
	count := req(wire.OpCountEqual, "qty")
	count.Value("3")
	query := req(wire.OpQuery, "")
	query.Filters([]wire.Filter{{Column: "order_id", Op: wire.OpFilterEq, Value: "7"}})
	query.Strings(nil)
	cases := map[string]*wire.Buffer{
		"lookup": lookup, "range": rng, "count": count, "query": query,
		"sum over string": req(wire.OpSum, "product"),
		"min over string": req(wire.OpMin, "product"),
	}
	for name, b := range cases {
		var out wire.Buffer
		srv.handle(b.Bytes(), &out, nil)
		if resp := out.Bytes(); resp[0] != wire.StatusErrColumnType {
			t.Errorf("%s: status %#x (%q), want StatusErrColumnType", name, resp[0], resp[1:])
		}
	}
}
