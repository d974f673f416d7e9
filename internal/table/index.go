package table

import "time"

// IndexStats describes one column's group-key index.
type IndexStats struct {
	Column    string
	Postings  int           // indexed main positions (0 until the first build lands)
	SizeBytes int           // posting-list memory
	Builds    uint64        // builds since creation: the initial build plus one per merge
	LastBuild time.Duration // duration of the most recent merge rebuild
}

// CreateIndex builds a group-key index over the named column's main
// partition and keeps it maintained: every subsequent merge rebuilds the
// index over the merged main before publishing it, and the column's delta
// CSB+ tree serves the unmerged tail.  Indexed reads (a Read plan's
// driving predicate, the query seed) use it automatically.
//
// The call is idempotent and safe concurrently with readers and writers.
// It takes the merge lock — excluding merges for the duration of the O(n)
// build, like a manual Merge call — then builds without the table lock and
// attaches under it, so reads are never blocked by the build itself.
// Indexes are in-memory only: a table restored from a snapshot starts
// unindexed and callers re-create indexes after Load.
func (t *Table) CreateIndex(column string) error {
	ci, err := t.schema.Index(column)
	if err != nil {
		return err
	}
	t.mergeMu.Lock()
	defer t.mergeMu.Unlock()
	t.mu.RLock()
	c := t.cols[ci]
	done := c.indexed()
	t.mu.RUnlock()
	if done {
		return nil
	}
	// The merge lock pins the main pointer (only commitMerge, which needs
	// it, swaps the main), so the counting sort can run without t.mu while
	// reads and delta writes proceed.
	p := c.buildMainIndex()
	t.mu.Lock()
	c.attachIndex(p)
	t.mu.Unlock()
	return nil
}

// IndexStats reports one entry per indexed column, in schema order.
func (t *Table) IndexStats() []IndexStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []IndexStats
	for _, c := range t.cols {
		if c.indexed() {
			out = append(out, c.indexStats())
		}
	}
	return out
}

// Indexed reports whether the named column has a group-key index.
func (t *Table) Indexed(column string) bool {
	ci, err := t.schema.Index(column)
	if err != nil {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cols[ci].indexed()
}
