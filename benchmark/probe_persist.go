package main

import (
	"bytes"
	"fmt"
	"time"

	"hyrise"
)

// probePersist snapshots a store to memory and loads it back: the cost
// of a snapshot-loaded start, should set-up ever use one.
func probePersist(ms metricSet, st hyrise.Store) error {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := hyrise.Save(st, &buf); err != nil {
		return fmt.Errorf("persist probe: save: %w", err)
	}
	t1 := time.Now()
	size := buf.Len()
	loaded, err := hyrise.Load(&buf)
	if err != nil {
		return fmt.Errorf("persist probe: load: %w", err)
	}
	t2 := time.Now()
	if loaded.ValidRows() != st.ValidRows() {
		return fmt.Errorf("persist probe: loaded %d valid rows, saved %d", loaded.ValidRows(), st.ValidRows())
	}
	ms.put("persist.save_s", t1.Sub(t0).Seconds())
	ms.put("persist.load_s", t2.Sub(t1).Seconds())
	ms.put("persist.bytes_per_row", float64(size)/float64(st.ValidRows()))
	return nil
}
