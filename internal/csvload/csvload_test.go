package csvload

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyrise/internal/shard"
	"hyrise/internal/table"
)

const sample = `order_id,qty,product
1,3,widget
2,5,gadget
3,1,widget
`

func TestLoadInfersTypes(t *testing.T) {
	tb, n, err := Load(strings.NewReader(sample), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || tb.Rows() != 3 {
		t.Fatalf("rows %d/%d", n, tb.Rows())
	}
	schema := tb.Schema()
	if schema[0].Type != table.Uint64 || schema[1].Type != table.Uint64 || schema[2].Type != table.String {
		t.Fatalf("inferred %v", schema)
	}
	row, err := tb.Row(1)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].(uint64) != 2 || row[2].(string) != "gadget" {
		t.Fatalf("row %v", row)
	}
	// Table merges and queries like any other.
	if _, err := tb.RequestMerge(context.Background(), table.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	h, err := shard.ColumnOf[string](tb, "product")
	if err != nil {
		t.Fatal(err)
	}
	if rows := h.Lookup("widget"); len(rows) != 2 {
		t.Fatalf("Lookup widget: %v", rows)
	}
}

func TestLoadExplicitTypes(t *testing.T) {
	tb, _, err := Load(strings.NewReader(sample), Options{
		TableName: "orders",
		Types:     map[string]table.Type{"qty": table.Uint32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Name() != "orders" {
		t.Fatalf("name %q", tb.Name())
	}
	if tb.Schema()[1].Type != table.Uint32 {
		t.Fatalf("qty type %v", tb.Schema()[1].Type)
	}
}

func TestLoadLimit(t *testing.T) {
	_, n, err := Load(strings.NewReader(sample), Options{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("n=%d", n)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"header only": "a,b\n",
		"bad uint":    "a\n1\nxyz\n", // inferred uint64 then non-numeric
		"ragged":      "a,b\n1,2\n3\n",
	}
	for name, data := range cases {
		if _, _, err := Load(strings.NewReader(data), Options{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadSemicolon(t *testing.T) {
	data := "a;b\n1;x\n"
	tb, n, err := Load(strings.NewReader(data), Options{Comma: ';'})
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if len(tb.Schema()) != 2 {
		t.Fatal("schema")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "orders.csv")
	if err := writeFile(path, sample); err != nil {
		t.Fatal(err)
	}
	tb, n, err := LoadFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || tb.Name() != "orders" {
		t.Fatalf("n=%d name=%q", n, tb.Name())
	}
	if _, _, err := LoadFile(filepath.Join(dir, "missing.csv"), Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
