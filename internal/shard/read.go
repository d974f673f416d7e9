package shard

import (
	"hyrise/internal/par"
	"hyrise/internal/table"
)

// fanOut is the store's one read fan-out: it runs read at one epoch on
// the partitions of the current shard map that can hold a match —
// readSet's: one per window for a key equality (key non-nil), every
// partition otherwise — and combines the answers.  A lone
// partition runs inline with the caller's view under its one lock hold.
// Over several, read in parallel through par.Do under separate lock
// holds, a latest view becomes one snapshot pinned for the call, and the
// partitions are those of the map after the pin, so they hold every
// version it sees: a row moving between partitions is seen exactly once,
// and no GC merge reclaims a version the read can see.  Global ids
// concatenate in physical order, so they ascend, with values aligned and
// limit (0: none) applied to the whole; counts, sums and the planner's
// account (Seeds, Estimate, Indexed, Seeded) add up; extremes combine.
// Read is the one caller; read stays a parameter so a test can reshard
// between the map load and the first partition read.
func fanOut(st *Table, view table.View, key any, limit int, read func(*table.Table, table.View) (*table.Selection, error)) (*table.Selection, error) {
	var buf [8]int
	m := st.load()
	set := st.readSet(m, key, buf[:0])
	if len(set) == 1 {
		st.partsRead.Add(1)
		s, err := read(m.part(set[0]), view)
		// A reshard's begin publishes a new map version before it moves a
		// row, so an unchanged version means the latest read missed no
		// move (a prune keeps the version: it changes no routing).
		if !view.IsLatest() || st.load().version == m.version {
			if err != nil {
				return nil, err
			}
			globalize(set[0], s.Rows)
			return s, nil
		}
	}
	if view.IsLatest() {
		view = st.Snapshot()
		defer view.Release()
		m = st.load()
		set = st.readSet(m, key, buf[:0])
	}
	st.partsRead.Add(uint64(len(set)))
	return readEach(m, set, view, limit, read)
}

// readEach runs read on the map's partitions set through par.Do — the
// first on the caller's goroutine, every other one on a pool worker when
// one is free and on the caller otherwise — and combines the answers (see
// fanOut).
func readEach(m *shardMap, set []int, view table.View, limit int, read func(*table.Table, table.View) (*table.Selection, error)) (*table.Selection, error) {
	type answer struct {
		phys int
		s    *table.Selection
		err  error
	}
	as := make([]answer, len(set))
	for i, phys := range set {
		as[i].phys = phys
	}
	par.Do(len(as), func(i int) { as[i].s, as[i].err = read(m.part(as[i].phys), view) })
	out := &table.Selection{}
	for _, a := range as {
		if a.err != nil {
			return nil, a.err
		}
		s := a.s
		out.Rows = append(out.Rows, globalize(a.phys, s.Rows)...)
		out.Values = append(out.Values, s.Values...)
		out.Count += s.Count
		out.Sum += s.Sum
		out.Seeds += s.Seeds
		out.Estimate += s.Estimate
		out.Indexed += s.Indexed
		out.Seeded += s.Seeded
		switch {
		case !s.Found:
		case !out.Found:
			out.Min, out.Max, out.Found = s.Min, s.Max, true
		default:
			out.Min, out.Max = min(out.Min, s.Min), max(out.Max, s.Max)
		}
	}
	if limit > 0 && len(out.Rows) > limit {
		out.Rows = out.Rows[:limit]
		if out.Values != nil {
			out.Values = out.Values[:limit]
		}
	}
	return out, nil
}

// Read runs the plan at one epoch with Table.Read on the partitions that
// can hold a match and combines the answers by its reduction (fanOut): a
// plan with an equality on the key column reads one partition per
// window, any other plan every partition.
func Read(st *Table, view table.View, p table.Plan) (*table.Selection, error) {
	var key any
	for _, pr := range p.Preds {
		if pr.Col == st.keyIdx && !pr.Range {
			key = pr.Lo
			break
		}
	}
	return fanOut(st, view, key, p.Limit, func(t *table.Table, v table.View) (*table.Selection, error) {
		return t.Read(v, p)
	})
}
