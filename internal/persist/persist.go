// Package persist is the codec between a store and the snapshot bytes:
// hyrise.Save/Load, hyrised's restart file and a follower's bootstrap image.
//
// A partition crosses the table boundary as one table.Image.  Save captures
// every partition's image — one read lock each, references to the immutable
// storage plus copies of ids and epochs — and then encodes with no table
// lock held; Load decodes the image and has each partition Adopt it.  No
// row is read through the table's API, inserted or merged on either path,
// so a save needs no quiescent store and cannot fail on a concurrent merge
// or GC, and a loaded partition has run no merge.  The bytes hold each main
// partition as memory holds it, a sorted dictionary and bit-packed codes
// (paper §3): Save decodes no code, and Load checks the parts once
// (colstore.FromParts: what colstore.Main.Validate accepts) and installs
// them without building a dictionary or looking a value up.  Only the
// delta is plain values.  All integers are little-endian; strings are
// length-prefixed.
//
// There is exactly one format.  The loader checks the magic and the version
// and fails anything else with ErrFormat:
//
//	magic "HYRS" | version u32 = Version | name
//	ncols u32 | per column: name | type u8
//	key column | window count u32 |
//	per window: base u32 | partition count u32 |
//	mid-reshard u8 | shard-map version u64
//	clock u64 (the store's epoch clock)
//	per partition of every window, in physical order:
//	    rows u64 | main rows u64 |
//	    next id u64 | retired u64 | reclaimed bytes u64 | gc watermark u64 |
//	    stable row ids (rows of u64) |
//	    begin epochs (rows of u64) | end epochs (rows of u64) |
//	    per column:
//	        dictionary count u64 | sorted dictionary (count of u32 / u64 / string) |
//	        code width u8 | word count u64 | packed codes (count of u64) |
//	        delta values (rows - main rows of u32 / u64 / string)
//
// The header records the key column and the shard map — its routing
// windows, ascending by physical base with holes where drained windows
// left, the last one active, and the shard-map version — so stores
// round-trip with consistent routing and the same read set: a key read
// visits one partition per window before and after.  The partitions of the
// windows are encoded in physical order, and global row ids (physical
// index over the local id) are preserved exactly.  The per-partition
// main-row count restores the saved main/delta split; the id map, epochs
// and GC counters restore version history and keep retired ids retired.  A
// mid-reshard save is normalized to its post-cutover topology and flagged
// (see shard.Table.PersistTopology); rows the migration had not yet moved
// load back into their sealed partitions, readable and consistent, and
// drain lazily, and the loaded store prunes no window until it applies a
// cutover.
//
// A save of a live store holds each partition as of one instant, and no
// epoch the store stamped exceeds the saved clock (it is read after the
// last capture).  The instants differ between partitions: a cross-shard
// move (key-changing update, reshard migration) committing between two
// captures is saved in neither or in both of its partitions.  A follower's
// bootstrap is repaired by the idempotent op-log tail; an embedded Save
// that must be exact across shards has to keep such writers out.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hyrise/internal/colstore"
	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/val"
)

// Magic identifies snapshot files.
const Magic = "HYRS"

// Version is the one format version written and read.
const Version uint32 = 8

// ErrFormat reports a malformed snapshot.
var ErrFormat = errors.New("persist: malformed snapshot")

// maxRows bounds every count a snapshot may claim — rows, the next id,
// dictionary entries, packed words — so a corrupt count fails with
// ErrFormat instead of overflowing an int.
const maxRows = 1 << 34

// maxPrealloc caps how many entries a loading slice pre-allocates before
// any data is decoded.  A claimed count is only trusted as capacity up to
// this bound; beyond it slices grow with the data actually read, so a
// corrupt count claiming billions of entries fails on the first missing
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
	if r.err != nil {
		return nil, r.err
	}
	if ncols <= 0 || ncols > 1<<20 {
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

// writePartition encodes one partition image: row counts, the main/delta
// boundary, the GC state, the stable row ids, the per-row begin/end epochs
// and every column as memory holds it.
func (w *writer) writePartition(img table.Image) {
	w.u64(uint64(len(img.IDs)))
	w.u64(uint64(img.MainRows))
	w.u64(uint64(img.NextID))
	w.u64(uint64(img.Retired))
	w.u64(uint64(img.Reclaimed))
	w.u64(img.Watermark)
	writeAll(img.IDs, func(id int) { w.u64(uint64(id)) })
	writeAll(img.Begin, w.u64)
	writeAll(img.End, w.u64)
	for _, col := range img.Columns {
		switch col := col.(type) {
		case table.Values[uint32]:
			writeColumn(w, col, w.u32)
		case table.Values[uint64]:
			writeColumn(w, col, w.u64)
		case table.Values[string]:
			writeColumn(w, col, w.str)
		}
	}
}

// writeColumn encodes one column: the main's dictionary, code width and
// packed words, then the values of every delta segment in slot order (the
// frozen, then the second delta of a mid-merge capture) as one run, so the
// bytes do not depend on how many deltas the column held.
func writeColumn[V val.Value](w *writer, col table.Values[V], put func(V)) {
	dict, words := col.Main.Dict().Values(), col.Main.Codes().Words()
	w.u64(uint64(len(dict)))
	writeAll(dict, put)
	w.u8(uint8(col.Main.Bits()))
	w.u64(uint64(len(words)))
	writeAll(words, w.u64)
	for _, p := range col.Plain {
		writeAll(p, put)
	}
}

func writeAll[V any](vs []V, put func(V)) {
	for _, v := range vs {
		put(v)
	}
}

// count decodes an element count, failing with ErrFormat beyond maxRows.
func (r *reader) count() int {
	n := r.u64()
	if r.err == nil && n > maxRows {
		r.err = fmt.Errorf("%w: count %d", ErrFormat, n)
	}
	return int(n)
}

// readValues decodes n values with get, failing fast on short input: it
// stops at the reader's first error and returns nothing once one is set.
func readValues[V any](r *reader, n int, get func() V) []V {
	if r.err != nil {
		return nil
	}
	out := make([]V, 0, min(n, maxPrealloc))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, get())
	}
	return out
}

// readColumn decodes one column section: a main of mainRows tuples, built
// only through colstore.FromParts, then the delta's values up to rows.
func readColumn[V val.Value](r *reader, mainRows, rows int, get func() V) table.Values[V] {
	dict := readValues(r, r.count(), get)
	width := uint(r.u8())
	words := readValues(r, r.count(), r.u64)
	deltaValues := readValues(r, rows-mainRows, get)
	if r.err != nil {
		return table.Values[V]{}
	}
	main, err := colstore.FromParts(dict, width, mainRows, words)
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return table.Values[V]{Main: main, Plain: [][]V{deltaValues}}
}

// readPartition decodes one partition section into an image and has the
// (empty) partition t adopt it; whatever Adopt rejects is a malformed
// snapshot.
func (r *reader) readPartition(t *table.Table, schema table.Schema) error {
	rows := r.count()
	img := table.Image{
		MainRows:  r.count(),
		NextID:    r.count(),
		Retired:   int(r.u64()),
		Reclaimed: int(r.u64()),
		Watermark: r.u64(),
		Columns:   make([]any, len(schema)),
	}
	if r.err != nil {
		return r.err
	}
	if img.MainRows > rows {
		return fmt.Errorf("%w: %d main rows of %d", ErrFormat, img.MainRows, rows)
	}
	img.IDs = readValues(r, rows, func() int { return int(r.u64()) })
	img.Begin = readValues(r, rows, r.u64)
	img.End = readValues(r, rows, r.u64)
	for i, def := range schema {
		switch def.Type {
		case table.Uint32:
			img.Columns[i] = readColumn(r, img.MainRows, rows, r.u32)
		case table.Uint64:
			img.Columns[i] = readColumn(r, img.MainRows, rows, r.u64)
		case table.String:
			img.Columns[i] = readColumn(r, img.MainRows, rows, r.str)
		}
	}
	if r.err != nil {
		return r.err
	}
	if err := t.Adopt(img); err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return nil
}

// Save writes a snapshot of a store: the header records the key column,
// the shard-map topology (windows, mid-reshard flag, map version) and the
// shared epoch clock, then every partition of the windows is encoded in
// physical order, so global row ids survive the round trip.  A mid-reshard
// topology is saved in its normalized post-cutover form
// (shard.Table.PersistTopology).  The store may be live: writers, merges
// and GC proceed and cannot fail the save (see the package doc for what
// that leaves open across partitions).
func Save(st *shard.Table, out io.Writer) error {
	parts, top := st.PersistTopology()
	imgs := make([]table.Image, len(parts))
	for i, p := range parts {
		imgs[i] = p.Image()
	}
	clock := st.Clock().Now() // after the last capture: covers every captured epoch
	w := &writer{w: bufio.NewWriter(out)}
	w.bytes([]byte(Magic))
	w.u32(Version)
	w.str(st.Name())
	w.writeSchema(st.Schema())
	w.str(st.KeyColumn())
	w.u32(uint32(len(top.Windows)))
	for _, win := range top.Windows {
		w.u32(uint32(win.Base))
		w.u32(uint32(win.N))
	}
	if top.MidReshard {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u64(top.Version)
	w.u64(clock)
	for _, img := range imgs {
		w.writePartition(img)
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Load reads a snapshot.  Input that is not a well-formed snapshot of
// exactly Version — short input included — fails with an error wrapping
// ErrFormat; any other error of the reader itself is returned as is.
func Load(in io.Reader) (*shard.Table, error) {
	r := &reader{r: bufio.NewReader(in)}
	magic := make([]byte, 4)
	r.bytes(magic)
	if r.err == nil && string(magic) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := r.u32(); r.err == nil && v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	name := r.str()
	schema, err := r.readSchema()
	if err != nil {
		return nil, err
	}
	key := r.str()
	var top shard.Topology
	nwin := int(r.u32())
	if r.err == nil && (nwin <= 0 || nwin > shard.MaxShards) {
		return nil, fmt.Errorf("%w: %d shard windows", ErrFormat, nwin)
	}
	for i := 0; i < nwin && r.err == nil; i++ {
		top.Windows = append(top.Windows, shard.Span{Base: int(r.u32()), N: int(r.u32())})
	}
	midReshard := r.u8()
	top.Version = r.u64()
	clock := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if midReshard > 1 {
		return nil, fmt.Errorf("%w: mid-reshard flag %d", ErrFormat, midReshard)
	}
	top.MidReshard = midReshard == 1
	st, err := shard.NewRestored(name, schema, key, top)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	st.Clock().AdvanceTo(clock)
	// Fill each partition directly, bypassing hash routing: the partition
	// sections already are the routed per-partition contents, and adoption
	// preserves every partition-local row id (hence every global id).
	parts := st.Partitions()
	for _, p := range parts {
		if err := r.readPartition(p, schema); err != nil {
			return nil, err
		}
	}
	// Every window but the last was sealed by resharding on the saved store.
	for _, p := range parts[:len(parts)-top.Windows[nwin-1].N] {
		p.Seal()
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
