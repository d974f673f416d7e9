// Command hyrisecli is a small interactive shell over the hyrise library:
// create tables, insert and query rows, trigger merges, inspect storage
// statistics and save/load snapshots.  With -shards N, created tables are
// hash-partitioned across N shards; every command works the same.
//
//	$ hyrisecli
//	> create sales id:uint64 qty:uint32 product:string
//	> insert sales 1 3 widget
//	> lookup sales id 1
//	> merge sales
//	> stats sales
//	> save sales /tmp/sales.hyr
//	> quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hyrise"
)

type shell struct {
	tables map[string]*hyrise.Table
	snaps  map[string]hyrise.ReadView // last captured snapshot per table
	shards int                        // shard count for newly created tables
	out    *bufio.Writer
}

func main() {
	shards := flag.Int("shards", 1, "hash-partition created tables across N shards (keyed by the first column)")
	flag.Parse()
	sh := &shell{tables: map[string]*hyrise.Table{}, snaps: map[string]hyrise.ReadView{},
		shards: *shards, out: bufio.NewWriter(os.Stdout)}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("hyrise delta-merge column store — type 'help'")
	fmt.Printf("creating tables with %d shard(s)\n", sh.shards)
	for {
		fmt.Print("> ")
		os.Stdout.Sync()
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := sh.exec(line); err != nil {
			fmt.Printf("error: %v\n", err)
		}
		sh.out.Flush()
	}
}

func (s *shell) exec(line string) error {
	args := strings.Fields(line)
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "help":
		s.help()
		return nil
	case "create":
		return s.create(rest)
	case "insert":
		return s.insert(rest)
	case "update":
		return s.update(rest)
	case "delete":
		return s.del(rest)
	case "lookup":
		return s.lookup(rest)
	case "range":
		return s.rng(rest)
	case "sum":
		return s.sum(rest)
	case "merge":
		return s.merge(rest)
	case "snapshot":
		return s.snapshot(rest)
	case "stats":
		return s.stats(rest)
	case "save":
		return s.save(rest)
	case "load":
		return s.load(rest)
	case "loadcsv":
		return s.loadcsv(rest)
	case "workload":
		return s.workload(rest)
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
}

func (s *shell) help() {
	fmt.Fprint(s.out, `commands:
  create <table> <col:type>...    types: uint32 uint64 string
  insert <table> <values>...      one value per column
  update <table> <row> <col>=<v>  insert-only update (new version)
  delete <table> <row>            invalidate a row
  lookup <table> <col> <value> [snap]  key lookup
  range  <table> <col> <lo> <hi> [snap] range select (numeric columns)
  sum    <table> <col> [snap]     aggregate a numeric column
  merge  <table> [naive]          run the merge process
  snapshot <table>                capture a consistent read view; later
                                  reads with a trailing 'snap' argument
                                  run against it, frozen across merges
                                  and updates (even cross-shard)
  stats  <table>                  storage statistics
  save   <table> <path>           write binary snapshot
  load   <name> <path>            read binary snapshot (the shard layout
                                  comes from the snapshot)
  loadcsv <name> <path.csv>       import CSV (header row, types inferred)
  workload <table> <col> <mix> <n>  run n ops of mix oltp|olap|tpcc
  quit

started with -shards N, 'create' hash-partitions tables across N shards
keyed by the first column; every command above works the same for any N.
'snapshot' captures one epoch across ALL shards atomically, so snap reads
are cross-shard consistent.
`)
}

func (s *shell) table(name string) (*hyrise.Table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return t, nil
}

func (s *shell) create(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: create <table> <col:type>...")
	}
	var schema hyrise.Schema
	for _, spec := range args[1:] {
		name, typ, ok := strings.Cut(spec, ":")
		if !ok {
			return fmt.Errorf("bad column spec %q", spec)
		}
		var ct hyrise.Type
		switch typ {
		case "uint32":
			ct = hyrise.Uint32
		case "uint64":
			ct = hyrise.Uint64
		case "string":
			ct = hyrise.String
		default:
			return fmt.Errorf("unknown type %q", typ)
		}
		schema = append(schema, hyrise.ColumnDef{Name: name, Type: ct})
	}
	t, err := hyrise.NewShardedTable(args[0], schema, schema[0].Name, s.shards)
	if err != nil {
		return err
	}
	s.setTable(args[0], t)
	fmt.Fprintf(s.out, "created %s with %d columns (shards: %d, key: %s)\n",
		args[0], len(schema), s.shards, schema[0].Name)
	return nil
}

func (s *shell) parseValue(t *hyrise.Table, col int, raw string) (any, error) {
	switch t.Schema()[col].Type {
	case hyrise.Uint32:
		v, err := strconv.ParseUint(raw, 10, 32)
		return uint32(v), err
	case hyrise.Uint64:
		v, err := strconv.ParseUint(raw, 10, 64)
		return v, err
	default:
		return raw, nil
	}
}

func (s *shell) insert(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: insert <table> <values>...")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	if len(args)-1 != len(t.Schema()) {
		return fmt.Errorf("need %d values", len(t.Schema()))
	}
	row := make([]any, len(t.Schema()))
	for i, raw := range args[1:] {
		if row[i], err = s.parseValue(t, i, raw); err != nil {
			return err
		}
	}
	id, err := t.Insert(row)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "row %d\n", id)
	return nil
}

func (s *shell) update(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: update <table> <row> <col>=<value>")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	row, err := strconv.Atoi(args[1])
	if err != nil {
		return err
	}
	col, raw, ok := strings.Cut(args[2], "=")
	if !ok {
		return fmt.Errorf("usage: update <table> <row> <col>=<value>")
	}
	ci := -1
	for i, def := range t.Schema() {
		if def.Name == col {
			ci = i
		}
	}
	if ci < 0 {
		return fmt.Errorf("no column %q", col)
	}
	v, err := s.parseValue(t, ci, raw)
	if err != nil {
		return err
	}
	nr, err := t.Update(row, map[string]any{col: v})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "row %d -> %d\n", row, nr)
	return nil
}

func (s *shell) del(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: delete <table> <row>")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	row, err := strconv.Atoi(args[1])
	if err != nil {
		return err
	}
	return t.Delete(row)
}

// view resolves an optional trailing "snap" argument to the table's last
// captured snapshot; without it reads run latest (zero ReadView).
func (s *shell) view(name string, args []string, n int) (hyrise.ReadView, []string, error) {
	if len(args) == n+1 {
		if args[n] != "snap" {
			return hyrise.ReadView{}, nil, fmt.Errorf("unknown argument %q (did you mean 'snap'?)", args[n])
		}
		v, ok := s.snaps[name]
		if !ok {
			return hyrise.ReadView{}, nil, fmt.Errorf("no snapshot for %q (run: snapshot %s)", name, name)
		}
		return v, args[:n], nil
	}
	return hyrise.ReadView{}, args, nil
}

// setTable installs (or replaces) a table and drops any snapshot captured
// on the table previously bound to the name: a ReadView's epoch is only
// meaningful against the clock of the store that captured it.  The old
// view's GC pin is released with it.
func (s *shell) setTable(name string, t *hyrise.Table) {
	s.tables[name] = t
	if v, ok := s.snaps[name]; ok {
		v.Release()
		delete(s.snaps, name)
	}
}

func (s *shell) snapshot(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: snapshot <table>")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	// Re-snapshotting replaces the previous view; release its GC pin so
	// only the latest capture holds history.
	if old, ok := s.snaps[args[0]]; ok {
		old.Release()
	}
	v := t.Snapshot()
	s.snaps[args[0]] = v
	fmt.Fprintf(s.out, "snapshot of %s at epoch %d (%d rows visible)\n",
		args[0], v.Epoch(), t.ValidRowsAt(v))
	return nil
}

func (s *shell) lookup(args []string) error {
	if len(args) != 3 && len(args) != 4 {
		return fmt.Errorf("usage: lookup <table> <col> <value> [snap]")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	view, args, err := s.view(args[0], args, 3)
	if err != nil {
		return err
	}
	rows, err := lookupAny(t, view, args[1], args[2])
	if err != nil {
		return err
	}
	return s.printRows(t, rows)
}

// lookupTyped probes the column through the unified handle.
func lookupTyped[V hyrise.Value](t *hyrise.Table, view hyrise.ReadView, col string, v V) ([]int, error) {
	h, err := hyrise.ColumnOf[V](t, col)
	if err != nil {
		return nil, err
	}
	return h.LookupAt(view, v), nil
}

func lookupAny(t *hyrise.Table, view hyrise.ReadView, col, raw string) ([]int, error) {
	for _, def := range t.Schema() {
		if def.Name != col {
			continue
		}
		switch def.Type {
		case hyrise.Uint32:
			v, err := strconv.ParseUint(raw, 10, 32)
			if err != nil {
				return nil, err
			}
			return lookupTyped(t, view, col, uint32(v))
		case hyrise.Uint64:
			v, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				return nil, err
			}
			return lookupTyped(t, view, col, v)
		default:
			return lookupTyped(t, view, col, raw)
		}
	}
	return nil, fmt.Errorf("no column %q", col)
}

func (s *shell) rng(args []string) error {
	if len(args) != 4 && len(args) != 5 {
		return fmt.Errorf("usage: range <table> <col> <lo> <hi> [snap]")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	view, args, err := s.view(args[0], args, 4)
	if err != nil {
		return err
	}
	rows, err := rangeAny(t, view, args[1], args[2], args[3])
	if err != nil {
		return err
	}
	return s.printRows(t, rows)
}

// rangeTyped parses the bounds at the column's width and range-selects
// through the unified handle.
func rangeTyped[V interface{ ~uint32 | ~uint64 }](t *hyrise.Table, view hyrise.ReadView, col, rawLo, rawHi string, bits int) ([]int, error) {
	lo, err := strconv.ParseUint(rawLo, 10, bits)
	if err != nil {
		return nil, err
	}
	hi, err := strconv.ParseUint(rawHi, 10, bits)
	if err != nil {
		return nil, err
	}
	h, err := hyrise.ColumnOf[V](t, col)
	if err != nil {
		return nil, err
	}
	return h.RangeAt(view, V(lo), V(hi)), nil
}

func rangeAny(t *hyrise.Table, view hyrise.ReadView, col, lo, hi string) ([]int, error) {
	for _, def := range t.Schema() {
		if def.Name != col {
			continue
		}
		switch def.Type {
		case hyrise.Uint32:
			return rangeTyped[uint32](t, view, col, lo, hi, 32)
		case hyrise.Uint64:
			return rangeTyped[uint64](t, view, col, lo, hi, 64)
		default:
			return nil, fmt.Errorf("range needs a numeric column")
		}
	}
	return nil, fmt.Errorf("no column %q", col)
}

func (s *shell) printRows(t *hyrise.Table, rows []int) error {
	for _, r := range rows {
		vals, err := t.Row(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%6d  %v\n", r, vals)
	}
	fmt.Fprintf(s.out, "%d row(s)\n", len(rows))
	return nil
}

func (s *shell) sum(args []string) error {
	if len(args) != 2 && len(args) != 3 {
		return fmt.Errorf("usage: sum <table> <col> [snap]")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	view, args, err := s.view(args[0], args, 2)
	if err != nil {
		return err
	}
	for _, def := range t.Schema() {
		if def.Name != args[1] {
			continue
		}
		var (
			sum uint64
			err error
		)
		switch def.Type {
		case hyrise.Uint32:
			sum, err = sumTyped[uint32](t, view, args[1])
		case hyrise.Uint64:
			sum, err = sumTyped[uint64](t, view, args[1])
		default:
			return fmt.Errorf("sum needs a numeric column")
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%d\n", sum)
		return nil
	}
	return fmt.Errorf("no column %q", args[1])
}

func sumTyped[V interface{ ~uint32 | ~uint64 }](t *hyrise.Table, view hyrise.ReadView, col string) (uint64, error) {
	h, err := hyrise.NumericColumnOf[V](t, col)
	if err != nil {
		return 0, err
	}
	return h.SumAt(view), nil
}

func (s *shell) merge(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: merge <table> [naive]")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	opts := hyrise.MergeOptions{}
	if len(args) > 1 && args[1] == "naive" {
		opts.Algorithm = hyrise.Naive
	}
	rep, err := t.RequestMerge(context.Background(), opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "merged %d delta rows into %d main rows in %s (%v, %d threads, shards: %d)\n",
		rep.RowsMerged, rep.MainRowsAfter, rep.Wall, rep.Algorithm, rep.Threads, t.StoreStats().Shards)
	return nil
}

func (s *shell) stats(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: stats <table>")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	st := t.StoreStats()
	fmt.Fprintf(s.out, "table %s: %d rows (%d valid), main %d, delta %d, %d bytes, shards: %d\n",
		st.Name, st.Rows, st.ValidRows, st.MainRows, st.DeltaRows, st.SizeBytes, st.Shards)
	for i, ts := range st.Partitions {
		fmt.Fprintf(s.out, "  shard %-3d %d rows (%d valid), main %d, delta %d, %d bytes\n",
			i, ts.Rows, ts.ValidRows, ts.MainRows, ts.DeltaRows, ts.SizeBytes)
		for _, c := range ts.Columns {
			fmt.Fprintf(s.out, "    %-16s %-7v main=%d delta=%d uniq=%d/%d bits=%d size=%d\n",
				c.Def.Name, c.Def.Type, c.MainRows, c.DeltaRows,
				c.UniqueMain, c.UniqueDelta, c.Bits, c.SizeBytes)
		}
	}
	return nil
}

func (s *shell) save(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: save <table> <path>")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	if err := hyrise.SaveFile(t, args[1]); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "saved %s\n", args[1])
	return nil
}

func (s *shell) load(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: load <name> <path>")
	}
	t, err := hyrise.LoadFile(args[1])
	if err != nil {
		return err
	}
	s.setTable(args[0], t)
	st := t.StoreStats()
	fmt.Fprintf(s.out, "loaded %s: %d rows (shards: %d, key: %s)\n",
		args[0], t.Rows(), st.Shards, st.KeyColumn)
	return nil
}

func (s *shell) loadcsv(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: loadcsv <name> <path.csv>")
	}
	t, n, err := hyrise.LoadCSVFile(args[1], hyrise.CSVOptions{TableName: args[0]})
	if err != nil {
		return err
	}
	s.setTable(args[0], t)
	fmt.Fprintf(s.out, "imported %d rows into %s (%d columns)\n", n, args[0], len(t.Schema()))
	return nil
}

func (s *shell) workload(args []string) error {
	if len(args) != 4 {
		return fmt.Errorf("usage: workload <table> <col> oltp|olap|tpcc <n>")
	}
	t, err := s.table(args[0])
	if err != nil {
		return err
	}
	var mix hyrise.Mix
	switch args[2] {
	case "oltp":
		mix = hyrise.OLTPMix
	case "olap":
		mix = hyrise.OLAPMix
	case "tpcc":
		mix = hyrise.TPCCMix
	default:
		return fmt.Errorf("unknown mix %q", args[2])
	}
	n, err := strconv.Atoi(args[3])
	if err != nil {
		return err
	}
	drv, err := hyrise.NewDriver(t, args[1], mix, hyrise.NewUniformGenerator(10000, 1), 1)
	if err != nil {
		return err
	}
	c, err := drv.Run(n)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%d ops in %s (%.0f ops/s): %d reads, %d writes\n",
		c.Total(), c.Duration, float64(c.Total())/c.Duration.Seconds(),
		c.Reads(), c.Writes())
	return nil
}
