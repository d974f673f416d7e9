package server_test

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hyrise/client"
	"hyrise/internal/server"
	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/wire"
)

// testLogWriter adapts t.Logf so server/replica slog output lands in the
// test log.
type testLogWriter struct{ t testing.TB }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

func salesSchema() table.Schema {
	return table.Schema{
		{Name: "order_id", Type: table.Uint64},
		{Name: "qty", Type: table.Uint32},
		{Name: "product", Type: table.String},
	}
}

// startServer serves st on a loopback listener and returns a connected
// client; everything is torn down with the test.
func startServer(t testing.TB, st *shard.Table) (*client.Client, *server.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, server.Options{Logger: testLogger(t)})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, srv, l.Addr().String()
}

func newStores(t *testing.T) map[string]*shard.Table {
	t.Helper()
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.New("sales", salesSchema(), "order_id", 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*shard.Table{"shards=1": flat, "shards=4": sharded}
}

// TestServerOps drives the full op surface through the client against
// one shard and four.
func TestServerOps(t *testing.T) {
	for name, st := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			c, _, _ := startServer(t, st)

			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			if c.Name() != "sales" {
				t.Fatalf("name %q", c.Name())
			}
			wantSchema := []client.Column{
				{Name: "order_id", Type: client.Uint64},
				{Name: "qty", Type: client.Uint32},
				{Name: "product", Type: client.String},
			}
			if !reflect.DeepEqual(c.Schema(), wantSchema) {
				t.Fatalf("schema %+v", c.Schema())
			}
			if cs, err := c.Stats(); err != nil || cs.Shards != st.NumShards() || c.KeyColumn() != "order_id" {
				t.Fatalf("shards=%d key=%q (%v)", cs.Shards, c.KeyColumn(), err)
			}

			// Insert + batch (with int literal coercion).
			id0, err := c.Insert([]any{1, 3, "widget"})
			if err != nil {
				t.Fatal(err)
			}
			var batch [][]any
			for i := 2; i <= 100; i++ {
				p := "widget"
				if i%4 == 0 {
					p = "gadget"
				}
				batch = append(batch, []any{uint64(i), uint32(i % 7), p})
			}
			ids, err := c.InsertBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(batch) {
				t.Fatalf("batch ids %d want %d", len(ids), len(batch))
			}

			// Row / IsValid.
			row, err := c.Row(id0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(row, []any{uint64(1), uint32(3), "widget"}) {
				t.Fatalf("row %v", row)
			}
			if ok, _ := c.IsValid(id0); !ok {
				t.Fatal("id0 should be valid")
			}

			// Lookup / Range / CountEqual.
			if got, _ := c.Lookup("order_id", 42); len(got) != 1 {
				t.Fatalf("lookup: %v", got)
			}
			if got, _ := c.Range("order_id", 10, 19); len(got) != 10 {
				t.Fatalf("range: %d rows", len(got))
			}
			if n, _ := c.CountEqual("product", "gadget"); n != 25 {
				t.Fatalf("count gadget = %d", n)
			}

			// Aggregates.
			sum, err := c.Sum("qty")
			if err != nil {
				t.Fatal(err)
			}
			var want uint64 = 3
			for i := 2; i <= 100; i++ {
				want += uint64(i % 7)
			}
			if sum != want {
				t.Fatalf("sum=%d want %d", sum, want)
			}
			if mn, ok, _ := c.Min("qty"); !ok || mn != uint32(0) {
				t.Fatalf("min=%v ok=%v", mn, ok)
			}
			if mx, ok, _ := c.Max("order_id"); !ok || mx != uint64(100) {
				t.Fatalf("max=%v ok=%v", mx, ok)
			}

			// Scan with and without rows.
			sids, svals, err := c.Scan("order_id", 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(sids) != 100 || len(svals) != 100 {
				t.Fatalf("scan %d/%d", len(sids), len(svals))
			}
			rids, rows, err := c.ScanRows("product", 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(rids) != 5 || len(rows) != 5 || len(rows[0]) != 3 {
				t.Fatalf("scanrows %d/%d", len(rids), len(rows))
			}

			// Query with projection.
			res, err := c.Query([]client.Filter{
				{Column: "product", Op: client.Eq, Value: "gadget"},
				{Column: "order_id", Op: client.Between, Value: 1, Hi: 50},
			}, []string{"order_id", "qty"})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count() != 12 || len(res.Values) != 12 || len(res.Values[0]) != 2 {
				t.Fatalf("query count=%d", res.Count())
			}
			// Rows share one backing array; appending to one must not
			// overwrite the next.
			next := res.Values[1][0]
			_ = append(res.Values[0], "appended")
			if res.Values[1][0] != next {
				t.Fatalf("append to row 0 overwrote row 1: %v", res.Values[1])
			}

			// Update / Delete and valid-row counting.
			nid, err := c.Update(id0, map[string]any{"qty": 9})
			if err != nil {
				t.Fatal(err)
			}
			if ok, _ := c.IsValid(id0); ok {
				t.Fatal("old version still valid after update")
			}
			if err := c.Delete(nid); err != nil {
				t.Fatal(err)
			}
			if n, _ := c.ValidRows(); n != 99 {
				t.Fatalf("valid rows %d want 99", n)
			}

			// Merge and post-merge reads.
			rep, err := c.Merge(client.MergeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.RowsMerged == 0 || rep.Aborted {
				t.Fatalf("merge report %+v", rep)
			}
			if got, _ := c.Lookup("order_id", 42); len(got) != 1 {
				t.Fatal("post-merge lookup missed")
			}
			// The wire's thread budget is clamped to the server's cores, and
			// a multi-partition report echoes the per-merge budget.
			rep, err = c.Merge(client.MergeOptions{Threads: 1 << 31})
			if err != nil {
				t.Fatal(err)
			}
			if limit := runtime.GOMAXPROCS(0); rep.Threads > limit {
				t.Fatalf("merge ran %d threads, want at most %d", rep.Threads, limit)
			}

			// Stats.
			stats, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			wantShards := st.NumShards()
			if stats.Shards != wantShards || stats.ValidRows != 99 || len(stats.Partitions) != wantShards {
				t.Fatalf("stats %+v", stats)
			}
			if stats.Requests == 0 || stats.ActiveConns == 0 {
				t.Fatalf("server counters empty: %+v", stats)
			}
		})
	}
}

// TestServerMergeThreadBudget pins what OpMerge does with the wire's
// thread budget on one partition: a budget within the server's cores runs
// exactly as asked, 0 means all of them, and anything larger is clamped.
func TestServerMergeThreadBudget(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name          string
		threads, want int
	}{
		{"one", 1, 1},
		{"all cores", procs, procs},
		{"zero means all", 0, procs},
		{"above cores", procs + 1, procs},
		{"u32 max", 1<<32 - 1, procs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := shard.New("sales", salesSchema(), "order_id", 1)
			if err != nil {
				t.Fatal(err)
			}
			c, _, _ := startServer(t, st)
			if _, err := c.Insert([]any{1, 3, "widget"}); err != nil {
				t.Fatal(err)
			}
			rep, err := c.Merge(client.MergeOptions{Threads: tc.threads})
			if err != nil {
				t.Fatal(err)
			}
			if rep.RowsMerged != 1 || rep.Threads != tc.want {
				t.Fatalf("merged %d rows with %d threads, want 1 row with %d",
					rep.RowsMerged, rep.Threads, tc.want)
			}
		})
	}
}

// TestServerSnapshots pins the server-side snapshot registry: a snapshot
// is frozen, shared across connections (and clients), and after its
// release reads at it stay exact until a reclaiming merge passes it, then
// fail.
func TestServerSnapshots(t *testing.T) {
	for name, st := range newStores(t) {
		t.Run(name, func(t *testing.T) {
			c, _, addr := startServer(t, st)
			for i := 1; i <= 50; i++ {
				if _, err := c.Insert([]any{uint64(i), uint32(1), "widget"}); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sumBefore, err := c.SumAt(snap, "qty")
			if err != nil {
				t.Fatal(err)
			}

			// Churn after the capture: updates, deletes, a merge.
			ids, err := c.Lookup("order_id", 7)
			if err != nil || len(ids) != 1 {
				t.Fatalf("lookup: %v %v", ids, err)
			}
			if _, err := c.Update(ids[0], map[string]any{"qty": 100}); err != nil {
				t.Fatal(err)
			}
			gone, _ := c.Lookup("order_id", 9)
			if err := c.Delete(gone[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Merge(client.MergeOptions{}); err != nil {
				t.Fatal(err)
			}

			// The pinned view is frozen...
			if got, _ := c.SumAt(snap, "qty"); got != sumBefore {
				t.Fatalf("pinned sum drifted: %d want %d", got, sumBefore)
			}
			if n, _ := c.ValidRowsAt(snap); n != 50 {
				t.Fatalf("pinned valid rows %d want 50", n)
			}
			if got, _ := c.LookupAt(snap, "order_id", 9); len(got) != 1 {
				t.Fatal("deleted row invisible under pinned view")
			}
			// ...while latest reads see the churn.
			if n, _ := c.ValidRows(); n != 49 {
				t.Fatalf("latest valid rows %d want 49", n)
			}

			// The token works from a second client (the registry is
			// server-wide, not per-connection).
			c2, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if got, err := c2.SumAt(snap, "qty"); err != nil || got != sumBefore {
				t.Fatalf("cross-client pinned sum: %d, %v", got, err)
			}
			ok, err := c2.VisibleAt(snap, gone[0])
			if err != nil || !ok {
				t.Fatalf("cross-client VisibleAt: %v %v", ok, err)
			}

			// QueryAt under the pin agrees with itself across churn.
			res1, err := c.QueryAt(snap, []client.Filter{
				{Column: "order_id", Op: client.Between, Value: 1, Hi: 50},
			}, []string{"qty"})
			if err != nil {
				t.Fatal(err)
			}
			if res1.Count() != 50 {
				t.Fatalf("pinned query count %d", res1.Count())
			}

			// Released, the epoch stays exact everywhere until a reclaiming
			// merge passes it; then its reads fail.
			if err := c.Release(snap); err != nil {
				t.Fatal(err)
			}
			if err := c.Release(snap); !errors.Is(err, client.ErrBadSnapshot) {
				t.Fatalf("double release err=%v", err)
			}
			if got, err := c2.SumAt(snap, "qty"); err != nil || got != sumBefore {
				t.Fatalf("released snapshot before GC: %d, %v; want %d", got, err, sumBefore)
			}
			if rep, err := c.Merge(client.MergeOptions{}); err != nil || rep.RowsReclaimed == 0 {
				t.Fatalf("merge after release reclaimed %d, %v", rep.RowsReclaimed, err)
			}
			if _, err := c2.SumAt(snap, "qty"); !errors.Is(err, client.ErrBadSnapshot) {
				t.Fatalf("released snapshot after GC err=%v want ErrBadSnapshot", err)
			}
		})
	}
}

// TestServerTypedErrors pins the status-code mapping end to end.
func TestServerTypedErrors(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, _, _ := startServer(t, flat)
	id, err := c.Insert([]any{uint64(1), uint32(1), "w"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		got  error
		want error
	}{
		{"row range", func() error { _, err := c.Row(999); return err }(), client.ErrRowRange},
		{"row invalid", func() error { return c.Delete(id) }(), client.ErrRowInvalid},
		{"no column", func() error { _, err := c.Lookup("nope", uint64(1)); return err }(), client.ErrNoColumn},
		{"no column coerce", func() error { _, err := c.Sum("nope"); return err }(), client.ErrNoColumn},
		{"arity", func() error { _, err := c.Insert([]any{uint64(1)}); return err }(), client.ErrArity},
		{"column type client", func() error { _, err := c.Lookup("order_id", "nan"); return err }(), client.ErrColumnType},
		{"aggregate over string", func() error { _, err := c.Sum("product"); return err }(), client.ErrColumnType},
		{"bad snapshot", func() error { _, err := c.SumAt(client.Snap(12345), "qty"); return err }(), client.ErrBadSnapshot},
	}
	for _, tc := range cases {
		if !errors.Is(tc.got, tc.want) {
			t.Errorf("%s: err=%v want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestServerScanThenLookupNoDeadlock is the regression test for the scan
// caveat at the server boundary: a scan that materializes full rows must
// never re-acquire the table read lock while holding it — it projects
// every column in the scan's own lock hold.  A re-entrant read would
// deadlock behind any write-lock waiter — with writers hammering, that
// deadlock shows within a few iterations.
func TestServerScanThenLookupNoDeadlock(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := flat.Insert([]any{uint64(i), uint32(i % 5), "widget"}); err != nil {
			t.Fatal(err)
		}
	}
	c, _, _ := startServer(t, flat)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: constant write-lock pressure
		defer wg.Done()
		for i := 2000; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := flat.Insert([]any{uint64(i), uint32(1), "widget"}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 25; i++ {
			ids, rows, err := c.ScanRows("qty", 500)
			if err != nil {
				done <- err
				return
			}
			if len(ids) != 500 || len(rows) != 500 {
				done <- fmt.Errorf("scan returned %d/%d rows", len(ids), len(rows))
				return
			}
			// The materialized rows must agree with the scanned column.
			for j, row := range rows {
				if row[1] == nil {
					done <- fmt.Errorf("row %d missing qty", ids[j])
					return
				}
			}
		}
		done <- nil
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("scan-then-lookup deadlocked at the server boundary")
	}
	close(stop)
	wg.Wait()
}

// TestServerRefusesOtherProtocol speaks to the server over a raw
// connection: a hello of another version and the unassigned opcodes 0x09
// (once an epoch-less snapshot capture), 0x15 (once store stats), 0x18
// (once a server-stats summary) and 0x1d (once index stats) are answered
// with error statuses, never served, and the session stays in sync for the
// requests after them.
func TestServerRefusesOtherProtocol(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, srv, addr := startServer(t, flat)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	roundTrip := func(req ...byte) []byte {
		t.Helper()
		if err := wire.WriteFrame(nc, req); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadFrame(nc)
		if err != nil || len(resp) == 0 {
			t.Fatalf("request % x: response % x, err %v", req, resp, err)
		}
		return resp
	}
	var hello wire.Buffer
	hello.U8(wire.OpHello)
	hello.U32(4)
	if resp := roundTrip(hello.Bytes()...); resp[0] != wire.StatusErrBadRequest {
		t.Fatalf("hello version 4: status 0x%02x, want StatusErrBadRequest", resp[0])
	}
	for _, op := range []byte{0x09, 0x15, 0x18, 0x1d} {
		resp := roundTrip(op)
		if msg := fmt.Sprintf("unknown opcode 0x%02x", op); resp[0] != wire.StatusErrBadRequest || !strings.Contains(string(resp), msg) {
			t.Fatalf("opcode 0x%02x: response %q, want StatusErrBadRequest with %q", op, resp, msg)
		}
	}
	if n := srv.SnapshotCount(); n != 0 {
		t.Fatalf("opcode 0x09 registered %d snapshots", n)
	}
	hello.Reset()
	hello.U8(wire.OpHello)
	hello.U32(wire.ProtocolVersion)
	if resp := roundTrip(hello.Bytes()...); resp[0] != wire.StatusOK {
		t.Fatalf("hello version %d after the refusals: status 0x%02x", wire.ProtocolVersion, resp[0])
	}
	if resp := roundTrip(wire.OpPing); resp[0] != wire.StatusOK {
		t.Fatalf("ping after the refusals: status 0x%02x", resp[0])
	}
}

// TestServerGracefulShutdown checks the drain path: an in-flight request
// completes and flushes, Serve returns ErrServerClosed, new connections
// are refused, and Shutdown returns once sessions are gone.
func TestServerGracefulShutdown(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(flat, server.Options{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	c, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Keep requests in flight while Shutdown lands.
	var okOnce sync.Once
	inflight := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := c.Insert([]any{uint64(w*1_000_000 + i), uint32(1), "w"})
				if err != nil {
					// Once draining, connection errors are expected; no
					// request may fail with a half-written response.
					return
				}
				okOnce.Do(func() { close(inflight) })
			}
		}(w)
	}
	<-inflight

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v want ErrServerClosed", err)
	}
	if srv.ActiveConns() != 0 {
		t.Fatalf("%d sessions survived shutdown", srv.ActiveConns())
	}
	// Every insert that was acknowledged is durable in the store; the
	// store is untouched by the teardown.
	if flat.Rows() == 0 {
		t.Fatal("no inserts landed")
	}
	// New connections are refused.
	if _, err := client.Dial(l.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}
