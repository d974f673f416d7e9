// Package persist serializes tables to a compact binary snapshot format.
//
// HYRISE is an in-memory engine; snapshots exist for operational reasons
// (loading benchmark fixtures, the CLI's save/load, hyrised's restart file,
// replica bootstrap).  Snapshots store materialized column values (not the
// physical encoding): the loader re-inserts and re-merges, which keeps the
// format independent of dictionary layout while the merge regenerates
// identical structures.  All integers are little-endian; strings are
// length-prefixed.
//
// There is exactly one format.  The loader checks the magic and the version
// and fails anything else with ErrFormat:
//
//	magic "HYRS" | version u32 = Version | name
//	ncols u32 | per column: name | type u8
//	key column | partition count u32 |
//	active base u32 | active len u32 | shard-map version u64
//	clock u64 (the store's epoch clock)
//	per partition:
//	    rows u64 | main rows u64 |
//	    next id u64 | retired u64 | reclaimed bytes u64 | gc watermark u64 |
//	    stable row ids (rows of u64) |
//	    begin epochs (rows of u64) | end epochs (rows of u64) |
//	    per column: values (rows of u32 / u64 / string)
//
// The header records the key column and the shard map — the physical
// partition count, the active window (which tail of the partition list key
// hashing routes writes to) and the shard-map version — so stores
// round-trip with consistent routing: each physical partition is encoded in
// physical order and global row ids (partition index over the local id)
// are preserved exactly.  The per-partition main-row count lets the loader
// re-merge to the saved main/delta split; the id map, epochs and GC
// counters restore version history and keep retired ids retired.  A
// mid-reshard save is normalized to its post-cutover topology (see
// shard.Table.PersistTopology); rows the migration had not yet moved load
// back into their sealed partitions, readable and consistent, and drain
// lazily.
package persist

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hyrise/internal/shard"
	"hyrise/internal/table"
)

// Magic identifies snapshot files.
const Magic = "HYRS"

// Version is the one format version written and read.
const Version uint32 = 6

// ErrFormat reports a malformed snapshot.
var ErrFormat = errors.New("persist: malformed snapshot")

// maxRows bounds the per-partition row count a snapshot may claim, so a
// corrupt header fails with ErrFormat instead of a huge allocation.
const maxRows = 1 << 34

// maxPrealloc caps how many entries a loading slice pre-allocates before
// any data is decoded.  The claimed row count is only trusted as capacity
// up to this bound; beyond it slices grow with the data actually read, so
// a corrupt header claiming billions of rows fails on the first missing
// byte instead of allocating gigabytes up front.
const maxPrealloc = 1 << 20

// maxString bounds the length a string may claim.
const maxString = 1 << 30

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) u8(v uint8) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.bytes(b[:])
}

func (w *writer) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.bytes(b[:])
}

func (w *writer) bytes(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.bytes([]byte(s))
}

type reader struct {
	r   *bufio.Reader
	err error
}

// fail records a read error.  Running out of input means the snapshot is
// torn, so EOF additionally wraps ErrFormat; other I/O errors pass through.
func (r *reader) fail(err error) {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = fmt.Errorf("%w: truncated: %w", ErrFormat, err)
	}
	r.err = err
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.fail(err)
	}
	return b
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) u64() uint64 {
	var b [8]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (r *reader) bytes(b []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail(err)
	}
}

// str decodes a length-prefixed string.  Like the row columns, the claimed
// length is trusted as an allocation only up to maxPrealloc bytes at a time:
// a longer string grows with the bytes actually read, so a lying length
// fails on the first missing byte instead of allocating up to maxString.
func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n > maxString {
		r.err = fmt.Errorf("%w: string length %d", ErrFormat, n)
		return ""
	}
	b := make([]byte, 0, min(n, maxPrealloc))
	for len(b) < n {
		step := min(n-len(b), maxPrealloc)
		b = append(b, make([]byte, step)...)
		r.bytes(b[len(b)-step:])
		if r.err != nil {
			return ""
		}
	}
	return string(b)
}

// writeSchema emits the column definitions.
func (w *writer) writeSchema(schema table.Schema) {
	w.u32(uint32(len(schema)))
	for _, def := range schema {
		w.str(def.Name)
		w.u8(uint8(def.Type))
	}
}

// readSchema parses the column definitions.
func (r *reader) readSchema() (table.Schema, error) {
	ncols := int(r.u32())
	if r.err != nil || ncols <= 0 || ncols > 1<<20 {
		return nil, fmt.Errorf("%w: column count", ErrFormat)
	}
	schema := make(table.Schema, ncols)
	for i := range schema {
		schema[i].Name = r.str()
		schema[i].Type = table.Type(r.u8())
		if r.err != nil {
			return nil, r.err
		}
		switch schema[i].Type {
		case table.Uint32, table.Uint64, table.String:
		default:
			return nil, fmt.Errorf("%w: column %q has unknown type %d", ErrFormat, schema[i].Name, schema[i].Type)
		}
	}
	return schema, nil
}

// readColumns decodes every column's values for rows, failing fast on
// short input.
func (r *reader) readColumns(schema table.Schema, rows int) ([][]any, error) {
	cols := make([][]any, len(schema))
	for ci, def := range schema {
		col := make([]any, 0, min(rows, maxPrealloc))
		for j := 0; j < rows; j++ {
			var v any
			switch def.Type {
			case table.Uint32:
				v = r.u32()
			case table.Uint64:
				v = r.u64()
			case table.String:
				v = r.str()
			}
			if r.err != nil {
				return nil, r.err
			}
			col = append(col, v)
		}
		cols[ci] = col
	}
	return cols, nil
}

// writePartition encodes one physical table: row counts, the main/delta
// boundary, the GC state, the stable row ids, the per-row begin/end epochs
// and every column's materialized values.  The table should be quiescent:
// a concurrent garbage-collecting merge can retire rows mid-write, which
// fails the save cleanly with ErrRowInvalid rather than corrupting it.
func writePartition(w *writer, t *table.Table) error {
	// Capture ids, epochs and GC counters under one lock so they are
	// mutually consistent; values are then read per stable id.
	ps := t.PersistState()
	rows := len(ps.IDs)
	mainRows := t.MainRows()
	if mainRows > rows {
		mainRows = rows
	}
	w.u64(uint64(rows))
	w.u64(uint64(mainRows))
	w.u64(uint64(ps.NextID))
	w.u64(uint64(ps.Retired))
	w.u64(uint64(ps.Reclaimed))
	w.u64(ps.Watermark)
	for _, id := range ps.IDs {
		w.u64(uint64(id))
	}
	for _, e := range ps.Begin {
		w.u64(e)
	}
	for _, e := range ps.End {
		w.u64(e)
	}
	for _, def := range t.Schema() {
		switch def.Type {
		case table.Uint32:
			h, err := table.ColumnOf[uint32](t, def.Name)
			if err != nil {
				return err
			}
			for _, id := range ps.IDs {
				v, err := h.Get(id)
				if err != nil {
					return err
				}
				w.u32(v)
			}
		case table.Uint64:
			h, err := table.ColumnOf[uint64](t, def.Name)
			if err != nil {
				return err
			}
			for _, id := range ps.IDs {
				v, err := h.Get(id)
				if err != nil {
					return err
				}
				w.u64(v)
			}
		case table.String:
			h, err := table.ColumnOf[string](t, def.Name)
			if err != nil {
				return err
			}
			for _, id := range ps.IDs {
				v, err := h.Get(id)
				if err != nil {
					return err
				}
				w.str(v)
			}
		}
	}
	return w.err
}

// readEpochColumn decodes one per-row epoch column, failing fast on short
// input.
func (r *reader) readEpochColumn(rows int) ([]uint64, error) {
	out := make([]uint64, 0, min(rows, maxPrealloc))
	for i := 0; i < rows; i++ {
		e := r.u64()
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, e)
	}
	return out, nil
}

// readPartition decodes one partition into the (empty) table t, restoring
// the saved main/delta split, the stable row-id map and the GC counters.
// Rows rebuild by re-insertion (which assigns dense ids), then the saved
// ids and epochs are restored on top, so ids retired before the save stay
// retired.
func (r *reader) readPartition(t *table.Table, schema table.Schema) error {
	rows64 := r.u64()
	mainRows64 := r.u64()
	nextID64 := r.u64()
	retired64 := r.u64()
	reclaimed64 := r.u64()
	watermark := r.u64()
	if r.err != nil || rows64 > maxRows || mainRows64 > rows64 ||
		nextID64 > maxRows || rows64 > nextID64 || retired64 > nextID64 {
		return fmt.Errorf("%w: row counts", ErrFormat)
	}
	rows, mainRows := int(rows64), int(mainRows64)
	ids64, err := r.readEpochColumn(rows) // same wire shape: rows of u64
	if err != nil {
		return err
	}
	ids := make([]int, rows)
	for i, id := range ids64 {
		if id >= nextID64 {
			return fmt.Errorf("%w: row id %d out of range", ErrFormat, id)
		}
		ids[i] = int(id)
	}
	begin, err := r.readEpochColumn(rows)
	if err != nil {
		return err
	}
	end, err := r.readEpochColumn(rows)
	if err != nil {
		return err
	}
	if err := r.insertColumns(t, schema, rows, mainRows); err != nil {
		return err
	}
	if err := t.RestoreRowIDs(ids, int(nextID64), int(retired64), int(reclaimed64), watermark); err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return t.RestoreRowEpochs(begin, end)
}

// insertColumns decodes the column values of one partition and rebuilds
// the rows: the first mainRows rows are inserted and merged into the main
// partitions, the rest stay in the delta.  The merge reclaims nothing and
// so keeps the slots dense: no row is invalidated until the epochs are
// restored on top.
func (r *reader) insertColumns(t *table.Table, schema table.Schema, rows, mainRows int) error {
	cols, err := r.readColumns(schema, rows)
	if err != nil {
		return err
	}
	insert := func(from, to int) error {
		if from >= to {
			return nil
		}
		batch := make([][]any, 0, to-from)
		for j := from; j < to; j++ {
			row := make([]any, len(schema))
			for ci := range cols {
				row[ci] = cols[ci][j]
			}
			batch = append(batch, row)
		}
		_, err := t.InsertRows(batch)
		return err
	}
	if err := insert(0, mainRows); err != nil {
		return err
	}
	if mainRows > 0 {
		if _, err := t.Merge(context.Background(), table.MergeOptions{}); err != nil {
			return err
		}
	}
	return insert(mainRows, rows)
}

// Save writes a snapshot of a store: the header records the key column,
// the shard-map topology (physical partition count, active window, map
// version) and the shared epoch clock, then every physical partition is
// encoded in physical order, so global row ids survive the round trip.  A
// mid-reshard topology is saved in its normalized post-cutover form
// (shard.Table.PersistTopology).
func Save(st *shard.Table, out io.Writer) error {
	parts, activeBase, activeLen, mapVersion := st.PersistTopology()
	w := &writer{w: bufio.NewWriter(out)}
	w.bytes([]byte(Magic))
	w.u32(Version)
	w.str(st.Name())
	w.writeSchema(st.Schema())
	w.str(st.KeyColumn())
	w.u32(uint32(len(parts)))
	w.u32(uint32(activeBase))
	w.u32(uint32(activeLen))
	w.u64(mapVersion)
	w.u64(st.Clock().Now())
	for _, s := range parts {
		if err := writePartition(w, s); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// Load reads a snapshot.  Input that is not a well-formed snapshot of
// exactly Version fails with an error wrapping ErrFormat.
func Load(in io.Reader) (*shard.Table, error) {
	r := &reader{r: bufio.NewReader(in)}
	magic := make([]byte, 4)
	r.bytes(magic)
	if r.err != nil || string(magic) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := r.u32(); r.err != nil || v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	name := r.str()
	schema, err := r.readSchema()
	if err != nil {
		return nil, err
	}
	key := r.str()
	parts := int(r.u32())
	activeBase := int(r.u32())
	activeLen := int(r.u32())
	mapVersion := r.u64()
	clock := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if parts <= 0 || parts > shard.MaxShards ||
		activeLen <= 0 || activeBase < 0 || activeBase+activeLen != parts || mapVersion == 0 {
		return nil, fmt.Errorf("%w: shard topology %d parts, active [%d,%d), map v%d",
			ErrFormat, parts, activeBase, activeBase+activeLen, mapVersion)
	}
	st, err := shard.NewRestored(name, schema, key, parts, activeBase, activeLen, mapVersion)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	st.Clock().AdvanceTo(clock)
	// Fill each partition directly, bypassing hash routing: the partition
	// sections already are the routed per-partition contents, and direct
	// insertion preserves every partition-local row id (hence every global
	// id).
	for i := 0; i < parts; i++ {
		if err := r.readPartition(st.Shard(i), schema); err != nil {
			return nil, err
		}
	}
	// Partitions outside the active window were sealed by resharding on the
	// saved store; seal them only now that they are populated (a sealed
	// partition rejects the loader's inserts).
	for i := 0; i < activeBase; i++ {
		st.Shard(i).Seal()
	}
	return st, nil
}

// SaveFile writes a snapshot to path atomically: through a temp file in
// the target directory, renamed into place, so an interrupted save never
// truncates or corrupts an existing snapshot — cmd/hyrised saves on
// shutdown and serves whatever the file holds at the next start.  The
// replaced file's permissions are preserved (0644 for a fresh file,
// matching what a plain create would produce) rather than CreateTemp's
// 0600.
func SaveFile(st *shard.Table, path string) error {
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".hyrise-snap-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := Save(st, f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Chmod(mode); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*shard.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
