// Package csvload imports CSV data into tables — the operational path for
// loading benchmark fixtures and real datasets into the engine.
//
// The header row supplies column names; column types are either given
// explicitly or inferred from the first data row (integers become Uint64,
// everything else String).  Values load into the delta partitions; callers
// decide when to merge.
package csvload

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// Options configure an import.
type Options struct {
	// TableName names the created table (default "csv").
	TableName string
	// Types optionally fixes column types by name; unlisted columns are
	// inferred from the first data row.
	Types map[string]table.Type
	// Comma is the field separator (default ',').
	Comma rune
	// Limit caps imported rows (0 = unlimited).
	Limit int
}

// Load reads CSV from r into a fresh one-shard store keyed on the first
// column.
func Load(r io.Reader, opts Options) (*shard.Table, int, error) {
	if opts.TableName == "" {
		opts.TableName = "csv"
	}
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true

	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("csvload: header: %w", err)
	}
	names := make([]string, len(header))
	for i, h := range header {
		names[i] = strings.TrimSpace(h)
	}

	first, err := cr.Read()
	if err == io.EOF {
		return nil, 0, fmt.Errorf("csvload: no data rows")
	}
	if err != nil {
		return nil, 0, fmt.Errorf("csvload: first row: %w", err)
	}
	schema := make(table.Schema, len(names))
	for i, name := range names {
		typ, ok := opts.Types[name]
		if !ok {
			typ = inferType(first[i])
		}
		schema[i] = table.ColumnDef{Name: name, Type: typ}
	}
	t, err := shard.New(opts.TableName, schema, schema[0].Name, 1)
	if err != nil {
		return nil, 0, err
	}

	rows := 0
	insert := func(record []string) error {
		if len(record) != len(schema) {
			return fmt.Errorf("csvload: row %d has %d fields, want %d", rows+1, len(record), len(schema))
		}
		vals := make([]any, len(schema))
		for i, raw := range record {
			v, err := parse(schema[i].Type, strings.TrimSpace(raw))
			if err != nil {
				return fmt.Errorf("csvload: row %d column %q: %w", rows+1, schema[i].Name, err)
			}
			vals[i] = v
		}
		if _, err := t.Insert(vals); err != nil {
			return err
		}
		rows++
		return nil
	}
	if err := insert(first); err != nil {
		return nil, 0, err
	}
	for opts.Limit == 0 || rows < opts.Limit {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, rows, fmt.Errorf("csvload: %w", err)
		}
		if err := insert(record); err != nil {
			return nil, rows, err
		}
	}
	return t, rows, nil
}

// LoadFile imports a CSV file.
func LoadFile(path string, opts Options) (*shard.Table, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	if opts.TableName == "" {
		base := path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		opts.TableName = strings.TrimSuffix(base, ".csv")
	}
	return Load(f, opts)
}

func inferType(sample string) table.Type {
	if _, err := strconv.ParseUint(strings.TrimSpace(sample), 10, 64); err == nil {
		return table.Uint64
	}
	return table.String
}

func parse(t table.Type, raw string) (any, error) {
	switch t {
	case table.Uint32:
		v, err := strconv.ParseUint(raw, 10, 32)
		return uint32(v), err
	case table.Uint64:
		v, err := strconv.ParseUint(raw, 10, 64)
		return v, err
	default:
		return raw, nil
	}
}
