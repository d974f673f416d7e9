package main

import (
	"fmt"

	"hyrise"
	"hyrise/client"
)

// snap is a snapshot token; 0 reads latest.
type snap uint64

// filter is one predicate of a conjunctive query; Hi == nil means equality.
type filter struct {
	col    string
	lo, hi any
}

// db is the operation surface the workloads drive.  remoteDB sends each
// call through hyrise/client to a server; localDB calls the root hyrise
// package directly, which is how a traced run replays a workload's own
// op stream against the bare store to see what the store alone costs.
type db interface {
	Insert(values []any) (int, error)
	InsertBatch(rows [][]any) ([]int, error)
	Update(row int, changes map[string]any) (int, error)
	Delete(row int) error
	Row(row int) ([]any, error)
	Lookup(s snap, col string, v uint64) ([]int, error)
	Range(s snap, col string, lo, hi uint64) ([]int, error)
	Sum(s snap, col string) (uint64, error)
	Min(s snap, col string) (uint32, bool, error)
	Max(s snap, col string) (uint32, bool, error)
	CountEqual(s snap, col string, v uint32) (int, error)
	// Query returns the matching row ids and their projected values.
	Query(s snap, filters []filter, project []string) ([]int, [][]any, error)
	Snapshot() (snap, error)
	Release(s snap) error
	ValidRows(s snap) (int, error)
}

// remoteDB adapts one client connection.
type remoteDB struct{ c *client.Client }

func (r remoteDB) Insert(values []any) (int, error)        { return r.c.Insert(values) }
func (r remoteDB) InsertBatch(rows [][]any) ([]int, error) { return r.c.InsertBatch(rows) }
func (r remoteDB) Update(row int, ch map[string]any) (int, error) {
	return r.c.Update(row, ch)
}
func (r remoteDB) Delete(row int) error       { return r.c.Delete(row) }
func (r remoteDB) Row(row int) ([]any, error) { return r.c.Row(row) }
func (r remoteDB) Lookup(s snap, col string, v uint64) ([]int, error) {
	return r.c.LookupAt(client.Snap(s), col, v)
}
func (r remoteDB) Range(s snap, col string, lo, hi uint64) ([]int, error) {
	return r.c.RangeAt(client.Snap(s), col, lo, hi)
}
func (r remoteDB) Sum(s snap, col string) (uint64, error) {
	return r.c.SumAt(client.Snap(s), col)
}
func (r remoteDB) Min(s snap, col string) (uint32, bool, error) {
	v, ok, err := r.c.MinAt(client.Snap(s), col)
	return asU32(v), ok, err
}
func (r remoteDB) Max(s snap, col string) (uint32, bool, error) {
	v, ok, err := r.c.MaxAt(client.Snap(s), col)
	return asU32(v), ok, err
}
func (r remoteDB) CountEqual(s snap, col string, v uint32) (int, error) {
	return r.c.CountEqualAt(client.Snap(s), col, v)
}
func (r remoteDB) Query(s snap, filters []filter, project []string) ([]int, [][]any, error) {
	fs := make([]client.Filter, len(filters))
	for i, f := range filters {
		fs[i] = client.Filter{Column: f.col, Op: client.Eq, Value: f.lo}
		if f.hi != nil {
			fs[i].Op, fs[i].Hi = client.Between, f.hi
		}
	}
	res, err := r.c.QueryAt(client.Snap(s), fs, project)
	if err != nil {
		return nil, nil, err
	}
	return res.Rows, res.Values, nil
}
func (r remoteDB) Snapshot() (snap, error) {
	s, err := r.c.Snapshot()
	return snap(s), err
}
func (r remoteDB) Release(s snap) error { return r.c.Release(client.Snap(s)) }
func (r remoteDB) ValidRows(s snap) (int, error) {
	return r.c.ValidRowsAt(client.Snap(s))
}

// asU32 unwraps a uint32 aggregate; a missing or mistyped value reads as
// the impossible ^0 so the caller's equality check fails.
func asU32(v any) uint32 {
	if u, ok := v.(uint32); ok {
		return u
	}
	return ^uint32(0)
}

// localDB drives a hyrise.Store in-process through the root package's
// typed handles.
type localDB struct {
	st       hyrise.Store
	u64      map[string]*hyrise.NumericHandle[uint64]
	u32      map[string]*hyrise.NumericHandle[uint32]
	views    map[snap]hyrise.ReadView
	nextSnap snap
}

func newLocalDB(st hyrise.Store) (*localDB, error) {
	l := &localDB{
		st:    st,
		u64:   map[string]*hyrise.NumericHandle[uint64]{},
		u32:   map[string]*hyrise.NumericHandle[uint32]{},
		views: map[snap]hyrise.ReadView{},
	}
	for _, col := range st.Schema() {
		var err error
		switch col.Type {
		case hyrise.Uint64:
			l.u64[col.Name], err = hyrise.NumericColumnOf[uint64](st, col.Name)
		case hyrise.Uint32:
			l.u32[col.Name], err = hyrise.NumericColumnOf[uint32](st, col.Name)
		}
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *localDB) view(s snap) (hyrise.ReadView, error) {
	if s == 0 {
		return hyrise.ReadView{}, nil
	}
	v, ok := l.views[s]
	if !ok {
		return v, fmt.Errorf("localDB: unknown snapshot %d", s)
	}
	return v, nil
}

func (l *localDB) Insert(values []any) (int, error)        { return l.st.Insert(values) }
func (l *localDB) InsertBatch(rows [][]any) ([]int, error) { return l.st.InsertRows(rows) }
func (l *localDB) Update(row int, ch map[string]any) (int, error) {
	return l.st.Update(row, ch)
}
func (l *localDB) Delete(row int) error       { return l.st.Delete(row) }
func (l *localDB) Row(row int) ([]any, error) { return l.st.Row(row) }
func (l *localDB) Lookup(s snap, col string, v uint64) ([]int, error) {
	view, err := l.view(s)
	if err != nil {
		return nil, err
	}
	return l.u64[col].LookupAt(view, v), nil
}
func (l *localDB) Range(s snap, col string, lo, hi uint64) ([]int, error) {
	view, err := l.view(s)
	if err != nil {
		return nil, err
	}
	return l.u64[col].RangeAt(view, lo, hi), nil
}
func (l *localDB) Sum(s snap, col string) (uint64, error) {
	view, err := l.view(s)
	if err != nil {
		return 0, err
	}
	if h, ok := l.u64[col]; ok {
		return h.SumAt(view), nil
	}
	return l.u32[col].SumAt(view), nil
}
func (l *localDB) Min(s snap, col string) (uint32, bool, error) {
	view, err := l.view(s)
	if err != nil {
		return 0, false, err
	}
	v, ok := l.u32[col].MinAt(view)
	return v, ok, nil
}
func (l *localDB) Max(s snap, col string) (uint32, bool, error) {
	view, err := l.view(s)
	if err != nil {
		return 0, false, err
	}
	v, ok := l.u32[col].MaxAt(view)
	return v, ok, nil
}
func (l *localDB) CountEqual(s snap, col string, v uint32) (int, error) {
	view, err := l.view(s)
	if err != nil {
		return 0, err
	}
	return l.u32[col].CountEqualAt(view, v), nil
}
func (l *localDB) Query(s snap, filters []filter, project []string) ([]int, [][]any, error) {
	view, err := l.view(s)
	if err != nil {
		return nil, nil, err
	}
	fs := make([]hyrise.Filter, len(filters))
	for i, f := range filters {
		fs[i] = hyrise.Filter{Column: f.col, Op: hyrise.FilterEq, Value: f.lo}
		if f.hi != nil {
			fs[i].Op, fs[i].Hi = hyrise.FilterBetween, f.hi
		}
	}
	res, err := hyrise.QueryAt(l.st, view, fs, project)
	if err != nil {
		return nil, nil, err
	}
	return res.Rows, res.Values, nil
}
func (l *localDB) Snapshot() (snap, error) {
	l.nextSnap++
	l.views[l.nextSnap] = l.st.Snapshot()
	return l.nextSnap, nil
}
func (l *localDB) Release(s snap) error {
	v, err := l.view(s)
	if err != nil {
		return err
	}
	v.Release()
	delete(l.views, s)
	return nil
}
func (l *localDB) ValidRows(s snap) (int, error) {
	view, err := l.view(s)
	if err != nil {
		return 0, err
	}
	return l.st.ValidRowsAt(view), nil
}
