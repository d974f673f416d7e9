package table

import "fmt"

// CheckRow validates a row's arity and value types against the schema
// without inserting it.  InsertRows callers (and the sharded router) use it
// to reject a whole batch before any row lands.
func (t *Table) CheckRow(values []any) error {
	if len(values) != len(t.cols) {
		return fmt.Errorf("%w: got %d want %d", ErrArity, len(values), len(t.cols))
	}
	for i, v := range values {
		if err := t.cols[i].checkValue(v); err != nil {
			return err
		}
	}
	return nil
}

// InsertRows appends a batch of rows under one lock acquisition and returns
// their row ids in input order.  Every row is validated before any row is
// inserted, so a bad value rejects the whole batch and the table is
// untouched.
func (t *Table) InsertRows(rows [][]any) ([]int, error) {
	for _, values := range rows {
		if err := t.CheckRow(values); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return nil, ErrSealed
	}
	at := t.clock.Now()
	if t.olog != nil && len(rows) > 0 {
		at = t.olog.Append(t.insertRecs(rows))
	}
	ids := make([]int, len(rows))
	for i, values := range rows {
		ids[i] = t.insertLocked(values, at)
	}
	return ids, nil
}
