// Command hyrisecli is an interactive shell over a running hyrised: every
// command is one hyrise/client call against the served table, so what an
// operator types takes the same wire path as any other client.
//
//	$ hyrised -schema 'id:uint64,qty:uint32,product:string' &
//	$ hyrisecli -addr 127.0.0.1:4860
//	> insert 1 3 widget
//	> import sales.csv
//	> lookup id 1
//	> snapshot
//	> merge
//	> sum qty snap
//	> stats
//	> quit
//
// The shell creates, saves and loads nothing and runs no workload itself:
// hyrised -schema, -key and -shards create the served table, hyrised
// -snapshot loads it at start and saves it at stop.
package main

import (
	"bufio"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"hyrise/client"
)

type shell struct {
	c    *client.Client
	cols []client.Column
	snap client.Snap // last captured snapshot; client.Latest before the first
	out  io.Writer
}

func main() {
	addr := flag.String("addr", "127.0.0.1:4860", "hyrised address")
	flag.Parse()
	c, err := client.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyrisecli:", err)
		os.Exit(1)
	}
	fmt.Printf("hyrise table %s at %s — type 'help'\n", c.Name(), *addr)
	sh := &shell{c: c, cols: c.Schema(), out: os.Stdout}
	err = sh.run(os.Stdin)
	sh.release()
	c.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyrisecli:", err)
		os.Exit(1)
	}
}

// maxLine bounds one input line; a longer line ends the session with an
// error.
const maxLine = 1 << 20

// run executes one command per line of in until EOF or quit, printing a
// failed command's error and carrying on.  It returns the input's read
// error, if any.
func (s *shell) run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	for {
		fmt.Fprint(s.out, "> ")
		if !sc.Scan() {
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			return nil
		}
		if line == "" {
			continue
		}
		if err := s.exec(line); err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
	}
}

var commands = map[string]func(*shell, []string) error{
	"help": (*shell).help, "insert": (*shell).insert, "import": (*shell).importCSV,
	"update": (*shell).update, "delete": (*shell).del, "lookup": (*shell).lookup,
	"range": (*shell).rng, "sum": (*shell).sum, "merge": (*shell).merge,
	"snapshot": (*shell).snapshot, "stats": (*shell).stats,
}

func (s *shell) exec(line string) error {
	args := strings.Fields(line)
	cmd, ok := commands[args[0]]
	if !ok {
		return fmt.Errorf("unknown command %q (try 'help')", args[0])
	}
	return cmd(s, args[1:])
}

func (s *shell) help([]string) error {
	st, err := s.c.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "table %s (key %s, %d shard(s)):\n", s.c.Name(), s.c.KeyColumn(), st.Shards)
	for _, c := range s.cols {
		fmt.Fprintf(s.out, "  %-16s %v\n", c.Name, c.Type)
	}
	fmt.Fprint(s.out, `commands:
  insert <value>...             one value per column, in schema order
  import <file.csv>             insert every row; the header names each
                                column once, in any order
  update <row> <col>=<value>    insert-only update (new version)
  delete <row>                  invalidate a row
  lookup <col> <value> [snap]   rows whose column equals the value
  range  <col> <lo> <hi> [snap] rows whose column lies in [lo, hi]
  sum    <col> [snap]           aggregate a numeric column
  merge                         run the merge process on every shard
  snapshot                      capture one epoch across all shards; reads
                                with a trailing 'snap' run against it,
                                frozen across updates and merges
  stats                         storage statistics per shard
  quit
`)
	return nil
}

// col returns the index of the named served column, or -1.
func (s *shell) col(name string) int {
	return slices.IndexFunc(s.cols, func(c client.Column) bool { return c.Name == name })
}

// value parses raw as a value of the named served column.
func (s *shell) value(col, raw string) (any, error) {
	i := s.col(col)
	if i < 0 {
		return nil, fmt.Errorf("no column %q", col)
	}
	return parse(s.cols[i], raw)
}

// parse converts raw text to the column's value.  A uint32 value comes
// back as a uint64 in range, which the client narrows.
func parse(c client.Column, raw string) (any, error) {
	bits := 64
	switch c.Type {
	case client.String:
		return raw, nil
	case client.Uint32:
		bits = 32
	}
	v, err := strconv.ParseUint(raw, 10, bits)
	if err != nil {
		return nil, fmt.Errorf("column %s: %q is not a %v", c.Name, raw, c.Type)
	}
	return v, nil
}

// at splits a read's arguments: n of them, then an optional "snap" that
// reads at the last captured snapshot instead of the latest rows.
func (s *shell) at(args []string, n int, usage string) ([]string, client.Snap, error) {
	switch {
	case len(args) == n:
		return args, client.Latest, nil
	case len(args) != n+1 || args[n] != "snap":
		return nil, 0, fmt.Errorf("usage: %s", usage)
	case s.snap == client.Latest:
		return nil, 0, errors.New("no snapshot yet (run: snapshot)")
	}
	return args[:n], s.snap, nil
}

func (s *shell) insert(args []string) error {
	if len(args) != len(s.cols) {
		return fmt.Errorf("usage: insert <value>... (%d values)", len(s.cols))
	}
	row := make([]any, len(args))
	for i, raw := range args {
		v, err := parse(s.cols[i], raw)
		if err != nil {
			return err
		}
		row[i] = v
	}
	id, err := s.c.Insert(row)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "row %d\n", id)
	return nil
}

func (s *shell) update(args []string) error {
	const usage = "usage: update <row> <col>=<value>"
	if len(args) != 2 {
		return errors.New(usage)
	}
	col, raw, ok := strings.Cut(args[1], "=")
	if !ok {
		return errors.New(usage)
	}
	row, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	v, err := s.value(col, raw)
	if err != nil {
		return err
	}
	id, err := s.c.Update(row, map[string]any{col: v})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "row %d -> %d\n", row, id)
	return nil
}

func (s *shell) del(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: delete <row>")
	}
	row, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	if err := s.c.Delete(row); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "row %d deleted\n", row)
	return nil
}

func (s *shell) lookup(args []string) error {
	args, snap, err := s.at(args, 2, "lookup <col> <value> [snap]")
	if err != nil {
		return err
	}
	v, err := s.value(args[0], args[1])
	if err != nil {
		return err
	}
	ids, err := s.c.LookupAt(snap, args[0], v)
	if err != nil {
		return err
	}
	return s.printRows(ids)
}

func (s *shell) rng(args []string) error {
	args, snap, err := s.at(args, 3, "range <col> <lo> <hi> [snap]")
	if err != nil {
		return err
	}
	lo, err := s.value(args[0], args[1])
	if err != nil {
		return err
	}
	hi, err := s.value(args[0], args[2])
	if err != nil {
		return err
	}
	ids, err := s.c.RangeAt(snap, args[0], lo, hi)
	if err != nil {
		return err
	}
	return s.printRows(ids)
}

// printRows prints each row's values.  A row version never changes once
// written, so reading it after a snapshot read shows what the snapshot saw.
func (s *shell) printRows(ids []int) error {
	for _, id := range ids {
		vals, err := s.c.Row(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%6d  %v\n", id, vals)
	}
	fmt.Fprintf(s.out, "%d row(s)\n", len(ids))
	return nil
}

func (s *shell) sum(args []string) error {
	args, snap, err := s.at(args, 1, "sum <col> [snap]")
	if err != nil {
		return err
	}
	sum, err := s.c.SumAt(snap, args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%d\n", sum)
	return nil
}

func (s *shell) merge(args []string) error {
	if len(args) != 0 {
		return errors.New("usage: merge")
	}
	rep, err := s.c.Merge(client.MergeOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "merged %d delta rows into %d main rows in %s (%d threads, %d reclaimed)\n",
		rep.RowsMerged, rep.MainRowsAfter, rep.Wall, rep.Threads, rep.RowsReclaimed)
	return nil
}

// snapshot replaces the last captured snapshot with a new one.
func (s *shell) snapshot(args []string) error {
	if len(args) != 0 {
		return errors.New("usage: snapshot")
	}
	s.release()
	snap, err := s.c.Snapshot()
	if err != nil {
		return err
	}
	s.snap = snap
	n, err := s.c.ValidRowsAt(snap)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "snapshot at epoch %d (%d rows visible)\n", uint64(snap), n) // a Snap is its epoch
	return nil
}

// release drops the last snapshot's server-side pin.  A failed release
// (the server restarted, say) leaves no pin behind either.
func (s *shell) release() {
	if s.snap != client.Latest {
		s.c.Release(s.snap)
		s.snap = client.Latest
	}
}

func (s *shell) stats(args []string) error {
	if len(args) != 0 {
		return errors.New("usage: stats")
	}
	st, err := s.c.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "table %s: %d rows (%d valid), main %d, delta %d, %d bytes, shards: %d, key: %s\n",
		st.Name, st.Rows, st.ValidRows, st.MainRows, st.DeltaRows, st.SizeBytes, st.Shards, st.KeyColumn)
	for i, p := range st.Partitions {
		fmt.Fprintf(s.out, "  shard %-3d %d rows (%d valid), main %d, delta %d, %d bytes\n",
			i, p.Rows, p.ValidRows, p.MainRows, p.DeltaRows, p.SizeBytes)
	}
	return nil
}

// importCSV inserts every row of a CSV file whose header names each served
// column once, in any order.  Every row is parsed before one InsertBatch
// sends any, so a malformed file inserts nothing.
func (s *shell) importCSV(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: import <file.csv>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	pos := make([]int, len(header)) // served column of each field
	seen := make([]bool, len(s.cols))
	for i, name := range header {
		j := s.col(name)
		switch {
		case j < 0:
			return fmt.Errorf("header: no column %q", name)
		case seen[j]:
			return fmt.Errorf("header: column %q repeated", name)
		}
		pos[i], seen[j] = j, true
	}
	if j := slices.Index(seen, false); j >= 0 {
		return fmt.Errorf("header: column %q missing", s.cols[j].Name)
	}
	var rows [][]any
	for n := 1; ; n++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("row %d: %w", n, err)
		}
		row := make([]any, len(s.cols))
		for i, raw := range rec {
			if row[pos[i]], err = parse(s.cols[pos[i]], raw); err != nil {
				return fmt.Errorf("row %d: %w", n, err)
			}
		}
		rows = append(rows, row)
	}
	ids, err := s.c.InsertBatch(rows)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "imported %d rows\n", len(ids))
	return nil
}
