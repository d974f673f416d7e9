package client

import (
	"strings"
	"testing"
	"time"

	"hyrise/internal/wire"
)

// TestStatsNeedEverySeries: Stats and IndexStats read every field from a
// named series, so a server that does not report one of them (a renamed
// or unregistered series) is an error naming it, never a silent zero.
func TestStatsNeedEverySeries(t *testing.T) {
	full := map[string]float64{
		"hyrise_store_shards":                         1,
		"hyrise_store_main_rows":                      8,
		"hyrise_store_delta_rows":                     2,
		"hyrise_gc_rows_retired_total":                3,
		"hyrise_gc_reclaimed_bytes_total":             96,
		"hyrise_store_merging":                        0,
		"hyrise_server_connections":                   1,
		"hyrise_server_snapshots":                     0,
		`hyrise_server_requests_total{op="sum"}`:      4,
		`hyrise_server_requests_total{op="schema"}`:   1,
		`hyrise_partition_rows{partition="0"}`:        10,
		`hyrise_partition_valid_rows{partition="0"}`:  9,
		`hyrise_partition_main_rows{partition="0"}`:   8,
		`hyrise_partition_delta_rows{partition="0"}`:  2,
		`hyrise_partition_size_bytes{partition="0"}`:  400,
		`hyrise_index_postings{column="k"}`:           8,
		`hyrise_index_bytes{column="k"}`:              64,
		`hyrise_index_builds_total{column="k"}`:       2,
		`hyrise_index_last_build_seconds{column="k"}`: 0.000125,
	}
	dial := func(t *testing.T, samples map[string]float64) *Client {
		t.Helper()
		c, err := Dial(stubReplica(t, wire.RolePrimary, samples, 0))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	without := func(name string) map[string]float64 {
		out := make(map[string]float64, len(full))
		for k, v := range full {
			if k != name {
				out[k] = v
			}
		}
		return out
	}

	c := dial(t, full)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "kv" || st.KeyColumn != "k" || st.Shards != 1 || st.Rows != 10 || st.ValidRows != 9 ||
		st.SizeBytes != 400 || st.RetiredRows != 3 || st.ReclaimedBytes != 96 || st.Requests != 5 ||
		len(st.Partitions) != 1 || st.Partitions[0].DeltaRows != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	idx, err := c.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	want := IndexStat{Column: "k", Postings: 8, SizeBytes: 64, Builds: 2, LastBuild: 125 * time.Microsecond}
	if len(idx) != 1 || idx[0] != want {
		t.Fatalf("IndexStats = %+v, want [%+v]", idx, want)
	}

	for _, name := range []string{
		"hyrise_store_shards", "hyrise_gc_reclaimed_bytes_total", "hyrise_server_snapshots",
		`hyrise_partition_rows{partition="0"}`, `hyrise_partition_size_bytes{partition="0"}`,
	} {
		if _, err := dial(t, without(name)).Stats(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Stats without %s: err = %v, want one naming it", name, err)
		}
	}
	name := `hyrise_index_bytes{column="k"}`
	if _, err := dial(t, without(name)).IndexStats(); err == nil || !strings.Contains(err.Error(), name) {
		t.Errorf("IndexStats without %s: err = %v, want one naming it", name, err)
	}
	// A column without a postings series is not indexed: no entry, no error.
	if idx, err := dial(t, without(`hyrise_index_postings{column="k"}`)).IndexStats(); err != nil || len(idx) != 0 {
		t.Errorf("IndexStats without an index = %+v, %v; want none", idx, err)
	}
}
