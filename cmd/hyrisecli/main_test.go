package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hyrise"
)

func newShell() (*shell, *bytes.Buffer) {
	var buf bytes.Buffer
	return &shell{tables: map[string]*hyrise.Table{}, shards: 1, out: bufio.NewWriter(&buf)}, &buf
}

func newShardedShell(shards int) (*shell, *bytes.Buffer) {
	var buf bytes.Buffer
	return &shell{tables: map[string]*hyrise.Table{}, shards: shards, out: bufio.NewWriter(&buf)}, &buf
}

func run(t *testing.T, sh *shell, buf *bytes.Buffer, lines ...string) string {
	t.Helper()
	for _, line := range lines {
		if err := sh.exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	sh.out.Flush()
	return buf.String()
}

func TestShellLifecycle(t *testing.T) {
	sh, buf := newShell()
	out := run(t, sh, buf,
		"create sales id:uint64 qty:uint32 product:string",
		"insert sales 1 3 widget",
		"insert sales 2 5 gadget",
		"lookup sales id 1",
		"merge sales",
		"lookup sales product gadget",
		"stats sales",
		"sum sales qty",
	)
	for _, want := range []string{
		"created sales with 3 columns",
		"row 0",
		"1 row(s)",
		"merged 2 delta rows",
		"table sales: 2 rows",
		"8", // sum(qty) = 3+5
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellShardedLifecycle(t *testing.T) {
	sh, buf := newShardedShell(4)
	out := run(t, sh, buf,
		"create sales id:uint64 qty:uint32 product:string",
		"insert sales 1 3 widget",
		"insert sales 2 5 gadget",
		"insert sales 3 7 widget",
		"lookup sales product widget",
		"merge sales",
		"lookup sales product widget",
		"range sales id 1 2",
		"stats sales",
		"sum sales qty",
		"workload sales id oltp 100",
	)
	for _, want := range []string{
		"created sales with 3 columns (shards: 4, key: id)",
		"merged 3 delta rows into 3 main rows",
		"bytes, shards: 4",
		"shard 3",
		"15", // sum(qty) = 3+5+7
		"100 ops in",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "2 row(s)") != 3 {
		t.Errorf("expected widget lookups (before and after merge) and the range to each find 2 rows:\n%s", out)
	}
}

// TestShellShardedSaveLoad saves a 4-shard table and reloads it in a shell
// started without -shards: the shard layout comes from the snapshot
// header, not from the shell's creation default.
func TestShellShardedSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sharded.hyr")
	sh, buf := newShardedShell(4)
	out := run(t, sh, buf,
		"create sales id:uint64 qty:uint32 product:string",
		"insert sales 1 3 widget",
		"insert sales 2 5 gadget",
		"insert sales 3 7 widget",
		"merge sales",
		"insert sales 4 2 widget",
		"save sales "+path,
	)
	if !strings.Contains(out, "saved "+path) {
		t.Fatalf("save output:\n%s", out)
	}

	flat, buf2 := newShell()
	out2 := run(t, flat, buf2,
		"load sales2 "+path,
		"lookup sales2 product widget",
		"sum sales2 qty",
		"stats sales2",
		"merge sales2",
	)
	for _, want := range []string{
		"loaded sales2: 4 rows (shards: 4, key: id)",
		"3 row(s)",            // widget lookup finds rows from main and delta
		"\n17\n",              // sum(qty) = 3+5+7+2
		"shard 3",             // stats shows the per-shard breakdown
		"threads, shards: 4)", // merge fans out over the reloaded shards
	} {
		if !strings.Contains(out2, want) {
			t.Errorf("output missing %q:\n%s", want, out2)
		}
	}
}

func TestShellUpdateDelete(t *testing.T) {
	sh, buf := newShell()
	out := run(t, sh, buf,
		"create t a:uint64",
		"insert t 7",
		"update t 0 a=9",
		"lookup t a 9",
		"delete t 1",
		"lookup t a 9",
	)
	if !strings.Contains(out, "row 0 -> 1") {
		t.Errorf("update output:\n%s", out)
	}
	// After delete, the lookup returns 0 rows.
	if !strings.Contains(out, "0 row(s)") {
		t.Errorf("delete not observed:\n%s", out)
	}
}

func TestShellRange(t *testing.T) {
	sh, buf := newShell()
	out := run(t, sh, buf,
		"create t a:uint64 q:uint32 s:string",
		"insert t 10 5 x",
		"insert t 20 6 y",
		"insert t 30 50 z",
		"range t a 15 30",
		"range t q 1 10",
	)
	if strings.Count(out, "2 row(s)") != 2 {
		t.Errorf("range output (uint64 and uint32 columns, 2 rows each):\n%s", out)
	}
	for _, line := range []string{"range t s a z", "range t q 1 4294967296", "range t nope 1 2"} {
		if err := sh.exec(line); err == nil {
			t.Errorf("%q: expected error", line)
		}
	}
}

func TestShellErrors(t *testing.T) {
	sh, _ := newShell()
	for _, line := range []string{
		"bogus",
		"create",
		"create t a:floatz",
		"insert missing 1",
		"lookup t a 1", // table does not exist
		"merge nope",
		"sum t a",
		"workload t a badmix 1",
	} {
		if err := sh.exec(line); err == nil {
			t.Errorf("%q: expected error", line)
		}
	}
}

func TestShellSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.hyr")
	sh, buf := newShell()
	out := run(t, sh, buf,
		"create t a:uint64 b:string",
		"insert t 1 x",
		"insert t 2 y",
		"save t "+path,
		"load t2 "+path,
		"lookup t2 b y",
	)
	if !strings.Contains(out, "loaded t2: 2 rows") {
		t.Errorf("load output:\n%s", out)
	}
	if !strings.Contains(out, "1 row(s)") {
		t.Errorf("query on loaded table:\n%s", out)
	}
}

func TestShellLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "orders.csv")
	csv := "id,product\n1,widget\n2,gadget\n3,widget\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	sh, buf := newShell()
	out := run(t, sh, buf,
		"loadcsv orders "+path,
		"lookup orders product widget",
		"merge orders",
		"lookup orders product widget",
	)
	if !strings.Contains(out, "imported 3 rows into orders") {
		t.Errorf("import output:\n%s", out)
	}
	if strings.Count(out, "2 row(s)") != 2 {
		t.Errorf("lookup before/after merge:\n%s", out)
	}
}

func TestShellWorkload(t *testing.T) {
	sh, buf := newShell()
	out := run(t, sh, buf,
		"create t k:uint64",
		"insert t 1",
		"workload t k oltp 200",
	)
	if !strings.Contains(out, "200 ops in") {
		t.Errorf("workload output:\n%s", out)
	}
}
