package table

import (
	"fmt"
	"time"

	"hyrise/internal/colstore"
	"hyrise/internal/core"
	"hyrise/internal/delta"
	"hyrise/internal/index"
	"hyrise/internal/val"
)

// column is the type-erased view of a typed column that Table manages.
// Methods are called with Table.mu held (write-held for mutations) except
// runMerge, which reads only the frozen snapshot and may run unlocked.
type column interface {
	def() ColumnDef
	checkValue(v any) error
	appendValue(v any)
	get(row int) any
	mainLen() int
	deltaLen() int
	stats() ColumnStats

	// bind converts a Plan predicate's values and resolves the main codes
	// and delta positions that match it (t.mu held).
	bind(p Pred) (cond, error)
	// aggregate computes a Sum or MinMax over the column (t.mu held).
	aggregate(t *Table, e uint64, slots []int, all, minMax bool, s *Selection) error

	// Group-key index maintenance; see Table.CreateIndex for the locking
	// protocol.  buildMainIndex reads only the immutable main, so it may
	// run without Table.mu as long as the merge lock pins the main pointer;
	// attachIndex and indexStats require Table.mu (write/read).
	indexed() bool
	buildMainIndex() *index.Postings
	attachIndex(p *index.Postings)
	indexStats() IndexStats

	// Partition image (Table.Image, Table.Adopt): image references the
	// storage as a Values; checkImage validates what adopt then installs.
	image() any
	checkImage(values any, mainRows, rows int) error
	adopt(values any)

	// Merge pipeline; see Table.Merge for the locking protocol.  drop is
	// the table's frozen GC decision over main+delta slots.
	beginMerge()
	runMerge(opts core.Options, drop core.Drop)
	commitMerge()
	abortMerge()
	mergeStats() core.Stats
}

// typedColumn binds a column's storage to its Go value type.
type typedColumn[V val.Value] struct {
	d    ColumnDef
	main *colstore.Main[V]
	// deltas are the column's delta partitions in slot order after the
	// main: one outside a merge; during one, the frozen delta the merge
	// reads, then the second delta.  The last one takes every insert.
	deltas []*delta.Partition[V]

	pending      *colstore.Main[V] // merge result awaiting commit
	pendingStats core.Stats        // written by runMerge, published at commit
	lastStats    core.Stats        // stats of the last committed merge

	// Group-key index bookkeeping.  idxOn is flipped by attachIndex (under
	// Table.mu, with the merge lock held); runMerge reads it while holding
	// the merge lock, which orders the read after any CreateIndex.  The
	// build counters are published by commitMerge under Table.mu so stats
	// readers never race the unlocked merge phase.
	idxOn        bool
	idxBuilds    uint64
	idxLastBuild time.Duration
	pendingBuild time.Duration // index build time of the pending merge

	convert func(any) (V, error)
}

func newColumn(def ColumnDef) column {
	switch def.Type {
	case Uint32:
		return newTyped(def, convertUint32)
	case Uint64:
		return newTyped(def, convertUint64)
	case String:
		return newTyped(def, convertString)
	default:
		panic(fmt.Sprintf("table: unknown column type %v", def.Type))
	}
}

func newTyped[V val.Value](def ColumnDef, convert func(any) (V, error)) *typedColumn[V] {
	return &typedColumn[V]{d: def, main: colstore.Empty[V](),
		deltas: []*delta.Partition[V]{delta.New[V]()}, convert: convert}
}

func convertUint64(v any) (uint64, error) {
	switch x := v.(type) {
	case uint64:
		return x, nil
	case uint32:
		return uint64(x), nil
	case uint:
		return uint64(x), nil
	case int:
		if x < 0 {
			return 0, fmt.Errorf("%w: negative value %d for uint64 column", ErrColumnType, x)
		}
		return uint64(x), nil
	case int64:
		if x < 0 {
			return 0, fmt.Errorf("%w: negative value %d for uint64 column", ErrColumnType, x)
		}
		return uint64(x), nil
	default:
		return 0, fmt.Errorf("%w: %T for uint64 column", ErrColumnType, v)
	}
}

func convertUint32(v any) (uint32, error) {
	u, err := convertUint64(v)
	if err != nil {
		return 0, fmt.Errorf("%w: %T for uint32 column", ErrColumnType, v)
	}
	if u > 1<<32-1 {
		return 0, fmt.Errorf("%w: %d overflows uint32 column", ErrColumnType, u)
	}
	return uint32(u), nil
}

func convertString(v any) (string, error) {
	if s, ok := v.(string); ok {
		return s, nil
	}
	return "", fmt.Errorf("%w: %T for string column", ErrColumnType, v)
}

// Convert normalizes a caller-supplied value to the canonical Go type of a
// column of the given Type (uint32, uint64 or string), applying the same
// coercions Insert accepts (e.g. non-negative int literals for integer
// columns).  Layers above the table — such as shard routing, which must
// hash a key value exactly as the owning column would store it — use this
// to agree with the storage layer on value identity.
func Convert(typ Type, v any) (any, error) {
	switch typ {
	case Uint32:
		return convertUint32(v)
	case Uint64:
		return convertUint64(v)
	case String:
		return convertString(v)
	default:
		return nil, fmt.Errorf("table: unknown column type %v", typ)
	}
}

func (c *typedColumn[V]) def() ColumnDef { return c.d }

func (c *typedColumn[V]) checkValue(v any) error {
	_, err := c.convert(v)
	return err
}

func (c *typedColumn[V]) appendValue(v any) {
	x, err := c.convert(v)
	if err != nil {
		// Writers validate first (CheckRow); reaching here is a programming error.
		panic(err)
	}
	c.deltas[len(c.deltas)-1].Insert(x)
}

// get materializes the value at a global row offset (see getTyped).
func (c *typedColumn[V]) get(row int) any {
	v, _ := c.getTyped(row)
	return v
}

// getTyped reads the value at a global row offset: main rows first, then
// each delta in slot order, stepping past every delta the offset lies
// beyond.  ok is false for an offset past the last delta.
func (c *typedColumn[V]) getTyped(row int) (V, bool) {
	if row < c.main.Len() {
		return c.main.At(row), true
	}
	row -= c.main.Len()
	for _, d := range c.deltas {
		if row < d.Len() {
			return d.Get(row), true
		}
		row -= d.Len()
	}
	var zero V
	return zero, false
}

func (c *typedColumn[V]) mainLen() int { return c.main.Len() }

func (c *typedColumn[V]) deltaLen() int {
	n := 0
	for _, d := range c.deltas {
		n += d.Len()
	}
	return n
}

func (c *typedColumn[V]) stats() ColumnStats {
	uniqueDelta, size := 0, c.main.SizeBytes()
	for _, d := range c.deltas {
		uniqueDelta += d.Unique()
		size += d.SizeBytes()
	}
	return ColumnStats{
		Def:         c.d,
		MainRows:    c.main.Len(),
		DeltaRows:   c.deltaLen(),
		UniqueMain:  c.main.Dict().Len(),
		UniqueDelta: uniqueDelta,
		Bits:        c.main.Bits(),
		SizeBytes:   size,
		LastMerge:   c.lastStats,
	}
}

// image references the main and the current prefix of every delta, one
// Plain segment per delta in slot order.
func (c *typedColumn[V]) image() any {
	v := Values[V]{Main: c.main, Plain: make([][]V, len(c.deltas))}
	for i, d := range c.deltas {
		v.Plain[i] = d.Values()
	}
	return v
}

func (c *typedColumn[V]) checkImage(values any, mainRows, rows int) error {
	v, ok := values.(Values[V])
	if !ok {
		return fmt.Errorf("table: image holds %T for %v column %q", values, c.d.Type, c.d.Name)
	}
	if v.Main == nil {
		return fmt.Errorf("table: image column %q has no main", c.d.Name)
	}
	if v.Main.Len() != mainRows || v.Len() != rows {
		return fmt.Errorf("table: image column %q holds %d main rows of %d, want %d of %d",
			c.d.Name, v.Main.Len(), v.Len(), mainRows, rows)
	}
	return nil
}

func (c *typedColumn[V]) adopt(values any) {
	v := values.(Values[V])
	d := delta.New[V]()
	for _, p := range v.Plain {
		for _, x := range p {
			d.Insert(x)
		}
	}
	c.main, c.deltas = v.Main, []*delta.Partition[V]{d}
}

// beginMerge freezes the column's one delta and appends the second delta
// that takes inserts until commit or abort (called under Table.mu write
// lock).
func (c *typedColumn[V]) beginMerge() {
	c.deltas = append(c.deltas, delta.New[V]())
	c.pending = nil
}

// runMerge merges main + frozen delta (deltas[0]) into a pending main
// partition, dropping the slots in the table's frozen GC decision.  It only
// reads immutable state (main, frozen delta, the drop), so it runs without
// the table lock while inserts land in the second delta.
func (c *typedColumn[V]) runMerge(opts core.Options, drop core.Drop) {
	// Writes only merge-private fields (pending, pendingStats); externally
	// visible state is untouched until commitMerge runs under the table's
	// write lock, so concurrent readers never observe a torn merge.
	c.pending, c.pendingStats = core.MergeColumnDrop(c.main, c.deltas[0], drop, opts)
	// Merge-maintained index rebuild: the merge just rewrote the whole code
	// vector against the re-sorted dictionary, so the group-key index is a
	// single counting-sort pass over the fresh vector.  Building it here —
	// still unlocked, on the unpublished pending main — means commitMerge
	// publishes main and index atomically and an abort simply discards both.
	if c.idxOn {
		t0 := time.Now()
		c.pending.BuildIndex()
		c.pendingBuild = time.Since(t0)
	}
}

// commitMerge installs the merged main and leaves the second delta as the
// column's one delta, in a fresh slice so the old backing array does not
// keep the retired frozen delta reachable (called under Table.mu write
// lock).
func (c *typedColumn[V]) commitMerge() {
	c.main = c.pending
	c.lastStats = c.pendingStats
	c.pending = nil
	c.deltas = []*delta.Partition[V]{c.deltas[1]}
	if c.idxOn {
		c.idxBuilds++
		c.idxLastBuild = c.pendingBuild
	}
}

func (c *typedColumn[V]) indexed() bool { return c.idxOn }

// buildMainIndex builds (but does not attach) a group-key index over the
// current main.  It reads only immutable state, so it is safe without
// Table.mu provided the caller holds the merge lock — the only path that
// replaces c.main is commitMerge, which requires that lock.
func (c *typedColumn[V]) buildMainIndex() *index.Postings {
	return index.Build(c.main.Codes(), c.main.Dict().Len())
}

// attachIndex installs a previously built index and turns on maintenance
// (called under Table.mu write lock, merge lock held).
func (c *typedColumn[V]) attachIndex(p *index.Postings) {
	c.main.SetIndex(p)
	c.idxOn = true
	c.idxBuilds++
}

func (c *typedColumn[V]) indexStats() IndexStats {
	s := IndexStats{Column: c.d.Name, Builds: c.idxBuilds, LastBuild: c.idxLastBuild}
	if p := c.main.Index(); p != nil {
		s.Postings = p.Rows()
		s.SizeBytes = p.SizeBytes()
	}
	return s
}

// mergeStats returns the statistics of the column's most recent merge.
func (c *typedColumn[V]) mergeStats() core.Stats { return c.lastStats }

// abortMerge discards the pending main and folds the second delta back
// into the frozen one.  Because the second delta's rows directly follow
// the frozen delta's rows in the global offset space, re-appending them
// preserves every row id.  Slot 1 is cleared before the reslice so the
// backing array does not keep the folded delta and its CSB+ tree reachable
// (called under Table.mu write lock).
func (c *typedColumn[V]) abortMerge() {
	c.pending = nil
	for _, x := range c.deltas[1].Values() {
		c.deltas[0].Insert(x)
	}
	c.deltas[1] = nil
	c.deltas = c.deltas[:1]
}
