package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// ErrDriverColumnType is returned when the driver's key-distribution
// column is not uint64.  The driver generates, looks up and range-scans
// uint64 key values, so every other column type is rejected up front with
// this typed error instead of failing deep inside handle resolution.
var ErrDriverColumnType = errors.New("workload: driver column must be uint64")

// checkDriverColumn validates that the named column exists and is uint64,
// so a mistyped column fails with the typed error rather than a
// handle-resolution one.
func checkDriverColumn(t *shard.Table, column string) error {
	for _, def := range t.Schema() {
		if def.Name == column {
			if def.Type != table.Uint64 {
				return fmt.Errorf("%w: column %q is %v", ErrDriverColumnType, column, def.Type)
			}
			return nil
		}
	}
	return fmt.Errorf("workload: %w: %q", table.ErrNoColumn, column)
}

// Driver executes a query mix against a single-key-column table, the shape
// the paper's update-rate experiments assume: lookups, scans and range
// selects read the key column; inserts, modifications and deletes exercise
// the write path.
type Driver struct {
	Table  *shard.Table
	Column string
	Mix    Mix
	Gen    Generator
	// ScanLimit caps rows visited per table scan so read-heavy mixes do
	// not dwarf everything else at large table sizes (0 = unlimited).
	ScanLimit int

	rng      *rand.Rand
	handle   *shard.Handle[uint64]
	liveRows []int // rows known valid, for update/delete targets
}

// NewDriver builds a driver over the named uint64 column of t.  A column
// of any other type returns ErrDriverColumnType.
func NewDriver(t *shard.Table, column string, mix Mix, gen Generator, seed int64) (*Driver, error) {
	if err := checkDriverColumn(t, column); err != nil {
		return nil, err
	}
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	h, err := shard.ColumnOf[uint64](t, column)
	if err != nil {
		return nil, err
	}
	return &Driver{
		Table: t, Column: column, Mix: mix, Gen: gen,
		ScanLimit: 10000,
		rng:       rand.New(rand.NewSource(seed)),
		handle:    h,
	}, nil
}

// Counts tallies executed operations per kind.
type Counts struct {
	ByKind   [numQueryKinds]int
	Rows     int           // rows touched by reads
	Duration time.Duration // wall time of the Run call
	Errors   int
}

// Reads returns the number of read operations executed.
func (c Counts) Reads() int {
	return c.ByKind[Lookup] + c.ByKind[TableScan] + c.ByKind[RangeSelect]
}

// Writes returns the number of write operations executed.
func (c Counts) Writes() int {
	return c.ByKind[Insert] + c.ByKind[Modification] + c.ByKind[Delete]
}

// Total returns all executed operations.
func (c Counts) Total() int { return c.Reads() + c.Writes() }

// Run executes n operations drawn from the mix and returns the tally.
// Rows created by this driver are tracked as modification/delete targets.
func (d *Driver) Run(n int) (Counts, error) {
	var c Counts
	start := time.Now()
	for i := 0; i < n; i++ {
		kind := d.Mix.Sample(d.rng)
		if err := d.step(kind, &c); err != nil {
			return c, fmt.Errorf("workload: op %d (%v): %w", i, kind, err)
		}
		c.ByKind[kind]++
	}
	c.Duration = time.Since(start)
	return c, nil
}

func (d *Driver) step(kind QueryKind, c *Counts) error {
	switch kind {
	case Lookup:
		c.Rows += len(d.handle.Lookup(d.Gen.Next()))
	case TableScan:
		seen := 0
		limit := d.ScanLimit
		d.handle.Scan(func(int, uint64) bool {
			seen++
			return limit == 0 || seen < limit
		})
		c.Rows += seen
	case RangeSelect:
		lo := d.Gen.Next()
		c.Rows += len(d.handle.Range(lo, lo+1000))
	case Insert:
		row, err := d.insertRow()
		if err != nil {
			return err
		}
		d.liveRows = append(d.liveRows, row)
	case Modification:
		row, ok := d.pickLive()
		if !ok {
			// No known-valid target yet: degrade to an insert, keeping the
			// write share of the mix intact.
			r, err := d.insertRow()
			if err != nil {
				return err
			}
			d.liveRows = append(d.liveRows, r)
			return nil
		}
		nr, err := d.Table.Update(row, map[string]any{d.Column: d.Gen.Next()})
		if err != nil {
			return err
		}
		d.liveRows = append(d.liveRows, nr)
	case Delete:
		row, ok := d.pickLive()
		if !ok {
			return nil // nothing to delete yet; skip silently
		}
		if err := d.Table.Delete(row); err != nil {
			return err
		}
	}
	return nil
}

// insertRow builds a row matching the full schema: the driver's column
// gets a generated value, other columns get type-appropriate fillers.
func (d *Driver) insertRow() (int, error) {
	schema := d.Table.Schema()
	row := make([]any, len(schema))
	for i, def := range schema {
		switch {
		case def.Name == d.Column:
			row[i] = d.Gen.Next()
		case def.Type == table.Uint64:
			row[i] = d.rng.Uint64() % 1000
		case def.Type == table.Uint32:
			row[i] = uint32(d.rng.Intn(1000))
		default:
			row[i] = FixedString(d.rng.Uint64() % 1000)
		}
	}
	return d.Table.Insert(row)
}

// pickLive pops a random known-valid row; rows invalidated by earlier
// operations are discarded lazily.
func (d *Driver) pickLive() (int, bool) {
	for len(d.liveRows) > 0 {
		i := d.rng.Intn(len(d.liveRows))
		row := d.liveRows[i]
		d.liveRows[i] = d.liveRows[len(d.liveRows)-1]
		d.liveRows = d.liveRows[:len(d.liveRows)-1]
		if d.Table.IsValid(row) {
			return row, true
		}
	}
	return 0, false
}
