package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"hyrise/internal/sched"
	"hyrise/internal/table"
)

// TestGoldenV8 pins the format.  testdata/v8.hyr holds the seedStores
// snapshots, each behind its u32 length, as the first commit writing
// version 8 wrote them, but for two bytes of the holed seed: the GC
// watermarks of its partitions 1 and 2, which the drained window 0 now
// raises from 0 to 1 when it leaves (a change of content, not of format:
// the older file loads and re-saves byte for byte too).  Every later
// commit must load them to the same topology and partitions, write the
// same bytes from the same stores, and re-save what it loaded byte for
// byte.  A change to the format is a new Version.
func TestGoldenV8(t *testing.T) {
	golden, err := os.ReadFile("testdata/v8.hyr")
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range seedStores(t) {
		n := int(binary.LittleEndian.Uint32(golden))
		want := golden[4 : 4+n]
		golden = golden[4+n:]

		var now bytes.Buffer
		if err := Save(st, &now); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(now.Bytes(), want) {
			t.Fatalf("seed %d: this commit writes other bytes than the golden file holds", i)
		}
		got, err := Load(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("seed %d: golden image rejected: %v", i, err)
		}
		if got.Clock().Now() != st.Clock().Now() {
			t.Fatalf("seed %d: clock %d, want %d", i, got.Clock().Now(), st.Clock().Now())
		}
		equalStores(t, st, got, equalPartitions)
		var again bytes.Buffer
		if err := Save(got, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Fatalf("seed %d: Save(Load(golden)) differs from golden", i)
		}
	}
	if len(golden) != 0 {
		t.Fatalf("%d trailing bytes in the golden file", len(golden))
	}
}

// TestSaveUnderGC saves in a loop while a scheduler garbage-collects under
// an update-heavy, key-moving writer: every save must succeed and load to
// partitions whose ids, epochs and columns agree, whose epochs the saved
// clock covers, and whose every row holds the values the writer recorded
// for that id (a stored version never changes, so the record is exact).
// Before Save captured one table.Image per partition it walked the ids
// through Handle.Get, and a GC merge committing mid-walk failed it with
// ErrRowInvalid.
func TestSaveUnderGC(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-shards", shards), func(t *testing.T) { saveUnderGC(t, shards) })
	}
}

func saveUnderGC(t *testing.T, shards int) {
	const (
		keys     = 1500
		images   = 200
		merges   = 20
		deadline = 2 * time.Minute
	)
	st := buildSharded(t, shards)

	// mu makes "update, then record what the new id holds" one step, so a
	// checker holding it finds every id an image can contain on record.
	var mu sync.Mutex
	recorded := map[int][]any{} // global row id -> its values, for good
	current := make([]int, keys)
	for k := range current {
		row := []any{uint64(k), uint32(0), "sku-0"}
		gid, err := st.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		current[k], recorded[gid] = gid, row
	}

	scheduler := sched.New(st.Partitions, sched.Config{Fraction: 0.05, Interval: time.Millisecond})
	if err := scheduler.Start(); err != nil {
		t.Fatal(err)
	}
	defer scheduler.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			k := n % keys
			mu.Lock()
			row := slices.Clone(recorded[current[k]])
			changes := map[string]any{"qty": uint32(n), "sku": fmt.Sprintf("sku-%d", n%97)}
			row[1], row[2] = changes["qty"], changes["sku"]
			if n%10 == 0 { // a fresh key, so on 3 shards often a cross-shard move
				changes["id"] = uint64(keys + n)
				row[0] = changes["id"]
			}
			gid, err := st.Update(current[k], changes)
			if err == nil {
				current[k], recorded[gid] = gid, row
			}
			mu.Unlock()
			if err != nil {
				t.Errorf("update %d: %v", n, err)
				return
			}
			if n%64 == 0 {
				st.Snapshot().Release() // advance the clock
			}
		}
	}()

	start := time.Now()
	for saved := 0; saved < images || scheduler.Merges() < merges || st.StoreStats().RetiredRows == 0; saved++ {
		if time.Since(start) > deadline {
			t.Fatalf("after %v: %d images, %d scheduled merges, %d ids retired",
				deadline, saved, scheduler.Merges(), st.StoreStats().RetiredRows)
		}
		var buf bytes.Buffer
		if err := Save(st, &buf); err != nil {
			t.Fatalf("save %d: %v", saved, err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("image %d: %v", saved, err)
		}
		clock := got.Clock().Now()
		for i, p := range got.Partitions() {
			ids := p.RowIDs()
			begin, end := p.RowEpochs()
			if len(begin) != len(ids) || len(end) != len(ids) || p.Rows() != len(ids) {
				t.Fatalf("image %d partition %d: %d ids, %d/%d epochs, %d rows",
					saved, i, len(ids), len(begin), len(end), p.Rows())
			}
			for _, cs := range p.Stats().Columns {
				if cs.MainRows+cs.DeltaRows != len(ids) {
					t.Fatalf("image %d partition %d: column %q holds %d values for %d ids",
						saved, i, cs.Def.Name, cs.MainRows+cs.DeltaRows, len(ids))
				}
			}
			for j, id := range ids {
				if j > 0 && id <= ids[j-1] {
					t.Fatalf("image %d partition %d: id %d after %d", saved, i, id, ids[j-1])
				}
				if begin[j] > clock || end[j] > clock {
					t.Fatalf("image %d partition %d: row %d lives [%d, %d), clock %d",
						saved, i, id, begin[j], end[j], clock)
				}
			}
		}
		// Every stored version of the image is one the writer recorded,
		// value for value: the recorded ids that resolve account for all
		// of its rows.
		mu.Lock()
		matched := 0
		for gid, want := range recorded {
			row, err := got.Row(gid)
			switch {
			case errors.Is(err, table.ErrRowInvalid):
				delete(recorded, gid) // reclaimed before the capture, so absent from every later image too
			case errors.Is(err, table.ErrRowRange):
				// written after the capture
			case err != nil:
				t.Fatalf("image %d: row %d: %v", saved, gid, err)
			case !slices.Equal(row, want):
				t.Fatalf("image %d: row %d holds %v, the writer stored %v", saved, gid, row, want)
			default:
				matched++
			}
		}
		mu.Unlock()
		if matched != got.Rows() {
			t.Fatalf("image %d: %d of its %d rows are versions the writer recorded", saved, matched, got.Rows())
		}
	}
	if err := scheduler.LastErr(); err != nil {
		t.Fatalf("scheduler: %v", err)
	}
}

// TestLoadRejectsBrokenImages: whatever colstore.FromParts or table.Adopt
// refuses is a malformed snapshot, not a loader failure of another kind.
func TestLoadRejectsBrokenImages(t *testing.T) {
	u64 := uint8(table.Uint64)
	// Two rows are ids and begin and end epochs (6 words), then a column
	// whose main is empty and whose delta holds 7 and 8.
	twoRows := func(meta ...uint64) func(w *writer) { return sections(u64s(meta...), column(nil, 0, nil, 7, 8)) }
	// Three main rows 0, 1, 2, all alive, whose column holds 7, 9, 7: a
	// two-entry dictionary, 1-bit codes 0, 1, 0 in one word.
	threeRows := func(dict []uint64, width uint8, words ...uint64) []byte {
		return partitionSnapshot(u64, [6]uint64{3, 3, 3}, sections(u64s(0, 1, 2, 1, 1, 1, 0, 0, 0), column(dict, width, words)))
	}
	for name, data := range map[string][]byte{
		"ids descending":      partitionSnapshot(u64, [6]uint64{2, 0, 2}, twoRows(1, 0, 1, 1, 0, 0)),
		"ids repeating":       partitionSnapshot(u64, [6]uint64{2, 0, 2}, twoRows(1, 1, 1, 1, 0, 0)),
		"id at next id":       partitionSnapshot(u64, [6]uint64{2, 0, 2}, twoRows(0, 2, 1, 1, 0, 0)),
		"id beyond an int":    partitionSnapshot(u64, [6]uint64{2, 0, 2}, twoRows(0, 1<<63, 1, 1, 0, 0)),
		"more rows than ids":  partitionSnapshot(u64, [6]uint64{2, 0, 1}, twoRows(0, 1, 1, 1, 0, 0)),
		"main rows over rows": partitionSnapshot(u64, [6]uint64{2, 3, 2}, twoRows(0, 1, 1, 1, 0, 0)),
		"main rows negative":  partitionSnapshot(u64, [6]uint64{2, 1 << 63, 2}, twoRows(0, 1, 1, 1, 0, 0)),
		"retired over next":   partitionSnapshot(u64, [6]uint64{2, 0, 2, 3}, twoRows(0, 1, 1, 1, 0, 0)),
		"next id over bound":  partitionSnapshot(u64, [6]uint64{0, 0, maxRows + 1}, nil),

		"dictionary unsorted":           threeRows([]uint64{9, 7}, 1, 0b010),
		"dictionary repeats a value":    threeRows([]uint64{7, 7}, 1, 0b010),
		"width over MinBits":            threeRows([]uint64{7, 9}, 2, 0b00_01_00),
		"width beyond 64":               threeRows([]uint64{7, 9}, 65, 0b010),
		"too few words":                 threeRows([]uint64{7, 9}, 1),
		"too many words":                threeRows([]uint64{7, 9}, 1, 0b010, 0),
		"code beyond dictionary":        threeRows([]uint64{7, 9, 11}, 2, 0b11_01_00),
		"unused dictionary entry":       threeRows([]uint64{7, 9, 11}, 2, 0b00_01_00),
		"padding bits set":              threeRows([]uint64{7, 9}, 1, 0b1000_010),
		"empty dictionary under a main": threeRows(nil, 0),
		"dictionary on an empty main": partitionSnapshot(u64, [6]uint64{1, 0, 1},
			sections(u64s(0, 1, 0), column([]uint64{7}, 0, nil, 7))),
	} {
		if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}

	st, err := Load(bytes.NewReader(threeRows([]uint64{7, 9}, 1, 0b010)))
	if err != nil {
		t.Fatalf("well-formed main: %v", err)
	}
	for id, want := range []uint64{7, 9, 7} {
		if row, err := st.Shard(0).Row(id); err != nil || row[0] != want {
			t.Fatalf("row %d of the well-formed main: %v (%v), want %d", id, row, err, want)
		}
	}
	good := partitionSnapshot(u64, [6]uint64{2, 1, 4, 2, 48, 9}, sections(u64s(1, 3, 1, 1, 0, 2), column([]uint64{7}, 0, nil, 8)))
	st, err = Load(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("well-formed image: %v", err)
	}
	if p := st.Shard(0); p.MainRows() != 1 || p.DeltaRows() != 1 || p.NextRowID() != 4 || p.RetiredRows() != 2 ||
		p.ReclaimedBytes() != 48 || p.GCWatermark() != 9 || p.ValidRows() != 1 {
		t.Fatalf("well-formed image loaded as %+v", p.Stats())
	}
}

// failingReader delivers its bytes and then fails with err.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestLoadPassesReadErrors: an I/O error of the reader is the caller's to
// see — it names what went wrong with the source, as when a replication
// primary aborts its image — while running out of input is a torn snapshot.
func TestLoadPassesReadErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(buildTable(t, 50), &buf); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("source went away")
	for n := 0; n < buf.Len(); n++ {
		_, err := Load(&failingReader{data: buf.Bytes()[:n], err: boom})
		if !errors.Is(err, boom) || errors.Is(err, ErrFormat) {
			t.Errorf("reader failing after %d bytes: err = %v, want the reader's error", n, err)
		}
		_, err = Load(&failingReader{data: buf.Bytes()[:n], err: io.EOF})
		if !errors.Is(err, ErrFormat) {
			t.Errorf("input ending after %d bytes: err = %v, want ErrFormat", n, err)
		}
	}
}
