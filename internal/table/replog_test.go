package table

import (
	"errors"
	"reflect"
	"testing"

	"hyrise/internal/epoch"
	"hyrise/internal/oplog"
)

func replogSchema() Schema {
	return Schema{{Name: "id", Type: Uint64}, {Name: "v", Type: Uint32}, {Name: "s", Type: String}}
}

// applyOps replays a log's ops into dst exactly as internal/replica does.
func applyOps(t *testing.T, dst *Table, ops []oplog.Op) {
	t.Helper()
	for _, op := range ops {
		var err error
		switch op.Kind {
		case oplog.KindInsert:
			err = dst.ApplyInsert(op.ID, op.Rows, op.Epoch)
		case oplog.KindUpdate:
			err = dst.ApplyUpdate(op.ID, op.ID2, op.Rows[0], op.Epoch)
		case oplog.KindDelete:
			err = dst.ApplyInvalidate(op.ID, op.Epoch)
		default:
			t.Fatalf("unexpected op kind %v", op.Kind)
		}
		if err != nil {
			t.Fatalf("apply op %d (%v): %v", op.LSN, op.Kind, err)
		}
	}
}

// requireIdentical asserts two tables hold bit-identical row state: same
// stable ids, same begin/end epochs, same values per id.
func requireIdentical(t *testing.T, a, b *Table) {
	t.Helper()
	if got, want := b.Rows(), a.Rows(); got != want {
		t.Fatalf("replica has %d physical rows, primary %d", got, want)
	}
	if got, want := b.NextRowID(), a.NextRowID(); got != want {
		t.Fatalf("replica nextID %d, primary %d", got, want)
	}
	if !reflect.DeepEqual(a.RowIDs(), b.RowIDs()) {
		t.Fatalf("row ids differ:\nprimary %v\nreplica %v", a.RowIDs(), b.RowIDs())
	}
	ab, ae := a.RowEpochs()
	bb, be := b.RowEpochs()
	if !reflect.DeepEqual(ab, bb) || !reflect.DeepEqual(ae, be) {
		t.Fatalf("epochs differ:\nprimary %v / %v\nreplica %v / %v", ab, ae, bb, be)
	}
	for _, id := range a.RowIDs() {
		av, err := a.Row(id)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := b.Row(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(av, bv) {
			t.Fatalf("row %d differs: primary %v, replica %v", id, av, bv)
		}
	}
}

func TestReplayRebuildsIdenticalTable(t *testing.T) {
	clock := epoch.NewClock()
	primary, err := NewWithClock("p", replogSchema(), clock)
	if err != nil {
		t.Fatal(err)
	}
	log := oplog.New(clock, 0)
	if err := primary.AttachOplog(log, 0); err != nil {
		t.Fatal(err)
	}

	// A convertible mix of Go types; the log must canonicalize them.
	id0, err := primary.Insert([]any{1, uint32(10), "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.InsertRows([][]any{
		{uint64(2), 20, "b"},
		{3, uint32(30), "c"},
	}); err != nil {
		t.Fatal(err)
	}
	clock.Capture()
	id1, err := primary.Update(id0, map[string]any{"v": 11})
	if err != nil {
		t.Fatal(err)
	}
	clock.Capture()
	if err := primary.Delete(id1); err != nil {
		t.Fatal(err)
	}

	ops, ok := log.ReadFrom(0, 1000)
	if !ok {
		t.Fatal("log trimmed unexpectedly")
	}
	replica, err := New("r", replogSchema())
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, replica, ops)
	requireIdentical(t, primary, replica)

	// Replay is idempotent: applying the whole log again changes nothing.
	applyOps(t, replica, ops)
	requireIdentical(t, primary, replica)
}

func TestReplayDetectsGaps(t *testing.T) {
	replica, err := New("r", replogSchema())
	if err != nil {
		t.Fatal(err)
	}
	row := []any{uint64(1), uint32(1), "x"}
	if err := replica.ApplyInsert(5, [][]any{row}, 2); !errors.Is(err, ErrReplayGap) {
		t.Fatalf("insert gap: got %v", err)
	}
	if err := replica.ApplyUpdate(0, 7, row, 2); !errors.Is(err, ErrReplayGap) {
		t.Fatalf("update gap: got %v", err)
	}
	if err := replica.ApplyInvalidate(3, 2); !errors.Is(err, ErrReplayGap) {
		t.Fatalf("invalidate gap: got %v", err)
	}
}

func TestGCBoundTracksCommittedWatermark(t *testing.T) {
	tbl, err := New("g", Schema{{Name: "v", Type: Uint64}})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.GCBound(); got != 0 {
		t.Fatalf("fresh table GCBound = %d", got)
	}
	id, err := tbl.Insert([]any{uint64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Update(id, map[string]any{"v": uint64(2)}); err != nil {
		t.Fatal(err)
	}
	tbl.Clock().Capture()
	if _, err := tbl.Merge(t.Context(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, want := tbl.GCBound(), tbl.GCWatermark(); got != want || got == 0 {
		t.Fatalf("GCBound = %d, watermark %d", got, want)
	}
}

// TestReplayRefusesOlderStamp pins monotone begin as a checked invariant:
// a replayed row stamped below the partition's last begin — an insert, an
// update's new version, the insert side of a move — is an ErrReplayGap and
// leaves the partition as it was, while a stamp equal to the last begin is
// accepted.
func TestReplayRefusesOlderStamp(t *testing.T) {
	tb, err := New("r", replogSchema())
	if err != nil {
		t.Fatal(err)
	}
	row := []any{uint64(1), uint32(2), "x"}
	if err := tb.ApplyInsert(0, [][]any{row, row}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Merge(t.Context(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.ApplyInsert(2, [][]any{row}, 7); err != nil {
		t.Fatal(err)
	}
	begin, end := tb.RowEpochs()
	for name, apply := range map[string]func() error{
		"insert":        func() error { return tb.ApplyInsert(3, [][]any{row}, 6) },
		"update":        func() error { return tb.ApplyUpdate(0, 3, row, 6) },
		"update, delta": func() error { return tb.ApplyUpdate(2, 3, row, 6) },
	} {
		if err := apply(); !errors.Is(err, ErrReplayGap) {
			t.Fatalf("%s stamped 6 after 7: err = %v, want ErrReplayGap", name, err)
		}
		gb, ge := tb.RowEpochs()
		if tb.NextRowID() != 3 || !reflect.DeepEqual(gb, begin) || !reflect.DeepEqual(ge, end) {
			t.Fatalf("%s refused, yet the partition changed: next id %d, epochs %v / %v", name, tb.NextRowID(), gb, ge)
		}
	}
	if err := tb.ApplyUpdate(0, 3, row, 7); err != nil {
		t.Fatalf("update stamped at the last begin: %v", err)
	}
	if err := tb.ApplyInsert(4, [][]any{row}, 7); err != nil {
		t.Fatalf("insert stamped at the last begin: %v", err)
	}
}

// TestReplayRefusesOlderDeath pins the order the main's exception list
// relies on: a replayed invalidation — a delete's, or an update's old
// version — stamped below the partition's last main death is an
// ErrReplayGap and leaves the partition as it was, while one stamped at it
// is accepted and read back at every epoch.
func TestReplayRefusesOlderDeath(t *testing.T) {
	tb, err := New("r", replogSchema())
	if err != nil {
		t.Fatal(err)
	}
	row := []any{uint64(1), uint32(2), "x"}
	if err := tb.ApplyInsert(0, [][]any{row, row, row}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Merge(t.Context(), MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.ApplyInvalidate(0, 9); err != nil {
		t.Fatal(err)
	}
	begin, end := tb.RowEpochs()
	for name, apply := range map[string]func() error{
		"delete": func() error { return tb.ApplyInvalidate(1, 8) },
		"update": func() error { return tb.ApplyUpdate(1, 3, row, 8) },
	} {
		if err := apply(); !errors.Is(err, ErrReplayGap) {
			t.Fatalf("%s stamped 8 after a death at 9: err = %v, want ErrReplayGap", name, err)
		}
		gb, ge := tb.RowEpochs()
		if tb.NextRowID() != 3 || !reflect.DeepEqual(gb, begin) || !reflect.DeepEqual(ge, end) {
			t.Fatalf("%s refused, yet the partition changed: next id %d, epochs %v / %v", name, tb.NextRowID(), gb, ge)
		}
	}
	if err := tb.ApplyInvalidate(2, 9); err != nil {
		t.Fatalf("delete stamped at the last death: %v", err)
	}
	if err := tb.ApplyUpdate(1, 3, row, 10); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		e    uint64
		want []bool // ids 0..3
	}{
		{8, []bool{true, true, true, false}},
		{9, []bool{false, true, false, false}},
		{10, []bool{false, false, false, true}},
	} {
		for id, want := range c.want {
			if got := visibleAt(tb, ViewAt(c.e), id); got != want {
				t.Fatalf("id %d at epoch %d: visible %v, want %v", id, c.e, got, want)
			}
		}
	}
}
