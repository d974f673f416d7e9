package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hyrise"
	"hyrise/client"
)

// serve serves an empty 4-shard sales(id uint64, qty uint32, product
// string) table keyed on id on a loopback port, and returns the server and
// a shell dialed to it with the buffer it prints to.
func serve(t *testing.T) (*shell, *bytes.Buffer, *hyrise.DBServer) {
	t.Helper()
	tb, err := hyrise.NewShardedTable("sales", hyrise.Schema{
		{Name: "id", Type: hyrise.Uint64},
		{Name: "qty", Type: hyrise.Uint32},
		{Name: "product", Type: hyrise.String},
	}, "id", 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := hyrise.Serve(l, tb, hyrise.ServerOptions{})
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var out bytes.Buffer
	return &shell{c: c, cols: c.Schema(), out: &out}, &out, srv
}

// do executes the lines, failing the test on the first error, and returns
// what they printed.
func do(t *testing.T, sh *shell, out *bytes.Buffer, lines ...string) string {
	t.Helper()
	out.Reset()
	for _, line := range lines {
		if err := sh.exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	return out.String()
}

func wantAll(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// insert inserts the rows and returns their ids as the shell printed them.
func insert(t *testing.T, sh *shell, out *bytes.Buffer, rows ...string) []string {
	t.Helper()
	var ids []string
	for _, row := range rows {
		m := regexp.MustCompile(`^row (\d+)\n$`).FindStringSubmatch(do(t, sh, out, "insert "+row))
		if m == nil {
			t.Fatalf("insert %s printed %q", row, out)
		}
		ids = append(ids, m[1])
	}
	return ids
}

func TestShellLifecycle(t *testing.T) {
	sh, out, _ := serve(t)
	insert(t, sh, out, "1 3 widget", "2 5 gadget", "3 7 widget")
	wantAll(t, do(t, sh, out, "help"), "table sales (key id, 4 shard(s))", "qty              uint32", "import <file.csv>")
	wantAll(t, do(t, sh, out, "lookup id 1"), "[1 3 widget]", "1 row(s)")
	wantAll(t, do(t, sh, out, "lookup product widget"), "2 row(s)")
	wantAll(t, do(t, sh, out, "merge"), "merged 3 delta rows into 3 main rows")
	wantAll(t, do(t, sh, out, "lookup product widget"), "[3 7 widget]", "2 row(s)")
	wantAll(t, do(t, sh, out, "range id 1 2"), "2 row(s)")
	wantAll(t, do(t, sh, out, "sum qty"), "15\n")
	wantAll(t, do(t, sh, out, "merge"), "merged 0 delta rows")
	wantAll(t, do(t, sh, out, "stats"),
		"table sales: 3 rows (3 valid), main 3, delta 0,", "shards: 4, key: id",
		"shard 0 ", "shard 1 ", "shard 2 ", "shard 3 ")
}

// TestShellSnapshotReads checks the trailing snap: reads at the last
// captured snapshot keep their answers across an update, a delete and a
// merge, while latest reads move, and a new snapshot releases the old one.
func TestShellSnapshotReads(t *testing.T) {
	sh, out, srv := serve(t)
	ids := insert(t, sh, out, "1 3 widget", "2 5 gadget", "3 7 widget", "4 2 gadget")
	wantAll(t, do(t, sh, out, "snapshot"), "(4 rows visible)")
	wantAll(t, do(t, sh, out, "snapshot"), "(4 rows visible)")
	if n := srv.SnapshotCount(); n != 1 {
		t.Fatalf("server holds %d snapshots after two captures, want 1", n)
	}
	do(t, sh, out, "update "+ids[1]+" qty=9", "delete "+ids[3], "merge")

	if got := do(t, sh, out, "sum qty snap"); got != "17\n" {
		t.Errorf("sum qty snap = %q, want 17 (3+5+7+2)", got)
	}
	if got := do(t, sh, out, "sum qty"); got != "19\n" {
		t.Errorf("sum qty = %q, want 19 (3+9+7)", got)
	}
	wantAll(t, do(t, sh, out, "lookup product gadget snap"), "[2 5 gadget]", "[4 2 gadget]", "2 row(s)")
	wantAll(t, do(t, sh, out, "lookup product gadget"), "[2 9 gadget]", "1 row(s)")

	sh.release()
	if n := srv.SnapshotCount(); n != 0 {
		t.Fatalf("server holds %d snapshots after release, want 0", n)
	}
}

func TestShellUpdateDelete(t *testing.T) {
	sh, out, _ := serve(t)
	ids := insert(t, sh, out, "7 1 x")
	// A key-changing update moves the row to another shard.
	m := regexp.MustCompile(`^row \d+ -> (\d+)\n$`).FindStringSubmatch(do(t, sh, out, "update "+ids[0]+" id=9"))
	if m == nil {
		t.Fatalf("update printed %q", out)
	}
	wantAll(t, do(t, sh, out, "lookup id 7"), "0 row(s)")
	wantAll(t, do(t, sh, out, "lookup id 9"), "[9 1 x]", "1 row(s)")
	wantAll(t, do(t, sh, out, "delete "+m[1]), "row "+m[1]+" deleted")
	wantAll(t, do(t, sh, out, "lookup id 9"), "0 row(s)")
	if err := sh.exec("delete " + m[1]); !errors.Is(err, client.ErrRowInvalid) {
		t.Errorf("second delete: %v, want ErrRowInvalid", err)
	}
}

func TestShellRange(t *testing.T) {
	sh, out, _ := serve(t)
	insert(t, sh, out, "10 5 x", "20 6 y", "30 50 z")
	for _, line := range []string{"range id 15 30", "range qty 1 10", "range product a y"} {
		wantAll(t, do(t, sh, out, line), "2 row(s)")
	}
}

func TestShellErrors(t *testing.T) {
	sh, out, _ := serve(t)
	insert(t, sh, out, "1 2 x")
	for line, want := range map[string]string{
		"bogus":                   `unknown command "bogus"`,
		"sum product":             "string column",
		"insert 1 4294967296 x":   `column qty: "4294967296" is not a uint32`,
		"range qty 1 4294967296":  "is not a uint32",
		"update 0 qty=-1":         "is not a uint32",
		"lookup id one":           "is not a uint64",
		"lookup nope 1":           `no column "nope"`,
		"sum nope":                "no such column",
		"update 0 nope=1":         `no column "nope"`,
		"insert 1 2":              "usage: insert",
		"update 0":                "usage: update",
		"update 0 qty":            "usage: update",
		"delete":                  "usage: delete",
		"lookup id":               "usage: lookup",
		"lookup id 1 now":         "usage: lookup",
		"range id 1":              "usage: range",
		"sum":                     "usage: sum",
		"merge fast":              "usage: merge",
		"merge naive":             "usage: merge",
		"snapshot now":            "usage: snapshot",
		"stats sales":             "usage: stats",
		"import":                  "usage: import",
		"sum qty snap":            "no snapshot yet",
		"lookup product x snap":   "no snapshot yet",
		"import /nonexistent.csv": "no such file",
	} {
		if err := sh.exec(line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one containing %q", line, err, want)
		}
	}

	// The read loop prints a failed command's error and carries on.
	out.Reset()
	if err := sh.run(strings.NewReader("bogus\n\nsum qty\nquit\nsum qty\n")); err != nil {
		t.Fatal(err)
	}
	if want := "> error: unknown command \"bogus\" (try 'help')\n> > 2\n> "; out.String() != want {
		t.Errorf("run printed %q, want %q", out.String(), want)
	}
}

// TestShellLongLine feeds a line longer than the shell reads: the session
// must end with the read error, not as if the input had ended.
func TestShellLongLine(t *testing.T) {
	sh, out, _ := serve(t)
	in := "insert 1 2 x\ninsert 2 3 " + strings.Repeat("y", 2<<20) + "\ninsert 3 4 z\n"
	if err := sh.run(strings.NewReader(in)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("run: %v, want %v", err, bufio.ErrTooLong)
	}
	wantAll(t, do(t, sh, out, "stats"), "table sales: 1 rows")
}

func writeCSV(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sales.csv")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShellImport imports a file whose header orders the columns
// differently from the served schema.
func TestShellImport(t *testing.T) {
	sh, out, _ := serve(t)
	path := writeCSV(t, "product,id,qty\nwidget,1,3\ngadget,2,5\nwidget,3,7\n")
	wantAll(t, do(t, sh, out, "import "+path), "imported 3 rows")
	for range 2 {
		wantAll(t, do(t, sh, out, "lookup product widget"), "[1 3 widget]", "[3 7 widget]", "2 row(s)")
		wantAll(t, do(t, sh, out, "lookup id 2"), "[2 5 gadget]", "1 row(s)")
		do(t, sh, out, "merge")
	}
	wantAll(t, do(t, sh, out, "sum qty"), "15\n")
}

// TestShellImportQuoted imports quoted fields: a comma and a doubled quote
// inside a field are part of the value.
func TestShellImportQuoted(t *testing.T) {
	sh, out, _ := serve(t)
	path := writeCSV(t, "id,qty,product\n1,3,\"widget, large\"\n2,5,\"say \"\"hi\"\"\"\n")
	wantAll(t, do(t, sh, out, "import "+path), "imported 2 rows")
	wantAll(t, do(t, sh, out, "lookup id 1"), "[1 3 widget, large]", "1 row(s)")
	wantAll(t, do(t, sh, out, "lookup id 2"), `[2 5 say "hi"]`, "1 row(s)")
}

// TestShellImportHeaderOnly imports a file with a valid header and no rows.
func TestShellImportHeaderOnly(t *testing.T) {
	sh, out, _ := serve(t)
	wantAll(t, do(t, sh, out, "import "+writeCSV(t, "qty,product,id\n")), "imported 0 rows")
	wantAll(t, do(t, sh, out, "stats"), "table sales: 0 rows")
}

// TestShellImportLarge imports more rows than one InsertBatch frame holds,
// so the batch crosses the wire as several frames.
func TestShellImportLarge(t *testing.T) {
	sh, out, _ := serve(t)
	const n = 1500
	var b strings.Builder
	b.WriteString("id,qty,product\n")
	for i := range n {
		fmt.Fprintf(&b, "%d,%d,p%d\n", i, i%10, i%7)
	}
	wantAll(t, do(t, sh, out, "import "+writeCSV(t, b.String())), fmt.Sprintf("imported %d rows", n))
	wantAll(t, do(t, sh, out, "stats"), fmt.Sprintf("table sales: %d rows (%d valid)", n, n))
	// qty cycles 0..9 over 1500 rows: 150 full cycles of sum 45.
	wantAll(t, do(t, sh, out, "sum qty"), "6750\n")
	wantAll(t, do(t, sh, out, "lookup id 1499"), "[1499 9 p1]", "1 row(s)")
}

// TestShellImportRejects checks that a malformed file fails with an error
// naming the header or its data row, and that none of its rows lands.
func TestShellImportRejects(t *testing.T) {
	sh, out, _ := serve(t)
	for _, tc := range []struct{ name, body, want string }{
		{"unknown-column", "id,qty,product,color\n1,2,x,red\n", `header: no column "color"`},
		{"missing-column", "id,qty\n1,2\n", `header: column "product" missing`},
		{"repeated-column", "id,qty,qty,product\n1,2,2,x\n", `header: column "qty" repeated`},
		{"short-row", "id,qty,product\n1,2,x\n3,4\n", "row 2: record on line 3: wrong number of fields"},
		{"bad-uint64", "id,qty,product\n1,2,x\n2,3,y\nthree,4,z\n", `row 3: column id: "three" is not a uint64`},
		{"uint32-overflow", "id,qty,product\n1,2,x\n2,4294967296,y\n", `row 2: column qty: "4294967296" is not a uint32`},
		{"empty-file", "", "header: EOF"},
		{"bare-quote", "id,qty,product\n1,2,x\n2,3,y\"z\n", `row 2: parse error on line 3, column 6: bare " in non-quoted-field`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := sh.exec("import " + writeCSV(t, tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("import of %q: error %v, want one containing %q", tc.body, err, tc.want)
			}
			wantAll(t, do(t, sh, out, "stats"), "table sales: 0 rows")
		})
	}
}
