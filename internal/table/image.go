package table

import (
	"fmt"

	"hyrise/internal/colstore"
	"hyrise/internal/epoch"
	"hyrise/internal/val"
)

// Image is a consistent image of one partition: everything that crosses
// the table boundary for the partition to be rebuilt elsewhere.  Table.Image
// captures one, Table.Adopt installs one; internal/persist is the codec
// between an Image and the snapshot bytes.
//
// The main is read-only between merges and a delta append-only (paper §3),
// so column storage is captured as references — nothing is copied or
// decoded, and the image stays valid whatever the partition does next.  Ids
// and epochs are mutated in place (invalidation, GC compaction), so those
// are copies, and flat ones: Begin and End hold every slot, the main's ends
// expanded from its dead bitmap and exceptions (0 for a live row), and
// Adopt folds them back (epoch.RowsOf).  An image thus holds 24 bytes of
// ids and epochs per row where the partition holds about 16.
type Image struct {
	IDs        []int    // stable id of every stored version in slot order, strictly ascending
	Begin, End []uint64 // per-slot visibility epochs
	NextID     int      // next stable id; ids below it absent from IDs are retired
	Retired    int      // ids retired by GC (cumulative)
	Reclaimed  int      // estimated bytes reclaimed by GC (cumulative)
	Watermark  uint64   // highest watermark a committed GC merge applied
	MainRows   int      // the first MainRows slots are main-partition rows
	// Columns holds a Values[uint32], Values[uint64] or Values[string] per
	// schema column, each covering every slot.
	Columns []any
}

// Values is one column of an Image, in slot order: the main partition as
// memory holds it — sorted dictionary and bit-packed codes — then the
// deltas as plain values, one Plain segment per delta.  A captured image
// references the partition's main and the prefix of each of its deltas —
// mid-merge the frozen, then the second delta — which is the same
// (main, deltas) shape every read walks; a decoded one holds the main the
// snapshot shipped and the delta as one segment.
type Values[V val.Value] struct {
	Main  *colstore.Main[V]
	Plain [][]V
}

// Len returns the number of values.
func (v Values[V]) Len() int {
	n := v.Main.Len()
	for _, p := range v.Plain {
		n += len(p)
	}
	return n
}

// Image captures the partition under one read lock.  It never waits for a
// merge: mid-merge it references the main and frozen delta the merge is
// reading plus the second delta's prefix.
func (t *Table) Image() Image {
	t.mu.RLock()
	defer t.mu.RUnlock()
	begin, end := t.epochs.Snapshot()
	img := Image{
		IDs:       append([]int(nil), t.ids...),
		Begin:     begin,
		End:       end,
		NextID:    t.nextID,
		Retired:   t.retired,
		Reclaimed: t.reclaimed,
		Watermark: t.gcWatermark,
		MainRows:  t.cols[0].mainLen(),
		Columns:   make([]any, len(t.cols)),
	}
	for i, c := range t.cols {
		img.Columns[i] = c.image()
	}
	return img
}

// Adopt installs an image into a partition no row was ever written to,
// under one write lock and without a merge: each column's Main becomes its
// main as is — no dictionary is built, no value looked up — its plain
// values are inserted into a fresh delta, and ids, epochs and GC counters
// are installed on top, so retired ids stay retired.  An image that is not
// well formed — ids not strictly ascending below NextID, begin epochs
// decreasing in slot order, unequal lengths,
// MainRows beyond the rows, Retired beyond NextID, a column of another type
// than the schema's or whose main does not hold MainRows tuples — fails
// Adopt and leaves the partition empty.  The mains themselves are not
// re-checked: a captured one is a live partition's, a decoded one passed
// colstore.FromParts.  Adopt owns img's slices and shares its mains, which
// are immutable; a group-key index a captured main carries comes with it.
func (t *Table) Adopt(img Image) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nextID != 0 || t.merging {
		return fmt.Errorf("table: Adopt into a partition that is not empty")
	}
	rows := len(img.IDs)
	if len(img.Begin) != rows || len(img.End) != rows || len(img.Columns) != len(t.cols) ||
		img.MainRows < 0 || img.MainRows > rows || img.Retired < 0 || img.Retired > img.NextID {
		return fmt.Errorf("table: image of %d ids has %d/%d epochs, %d columns, %d main rows, %d retired of %d",
			rows, len(img.Begin), len(img.End), len(img.Columns), img.MainRows, img.Retired, img.NextID)
	}
	prev := -1
	for i, id := range img.IDs {
		if id <= prev || id >= img.NextID {
			return fmt.Errorf("table: image id %d after %d (next id %d)", id, prev, img.NextID)
		}
		if i > 0 && img.Begin[i] < img.Begin[i-1] {
			return fmt.Errorf("table: image begin epoch %d at slot %d after %d", img.Begin[i], i, img.Begin[i-1])
		}
		prev = id
	}
	for i, c := range t.cols {
		if err := c.checkImage(img.Columns[i], img.MainRows, rows); err != nil {
			return err
		}
	}
	for i, c := range t.cols {
		c.adopt(img.Columns[i])
	}
	t.rows = rows
	t.ids = img.IDs
	t.epochs = epoch.RowsOf(img.Begin, img.End, img.MainRows)
	t.nextID = img.NextID
	t.retired = img.Retired
	t.reclaimed = img.Reclaimed
	t.gcWatermark = img.Watermark
	return nil
}
