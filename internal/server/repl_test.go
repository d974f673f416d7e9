package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyrise/client"
	"hyrise/internal/oplog"
	"hyrise/internal/replica"
	"hyrise/internal/server"
	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/wire"
)

// startReplicated serves st as a replication primary (op log attached)
// plus n followers, each a full replica.Replica fronted by its own
// server.  It returns the primary's address and the follower addresses
// and servers.
func startReplicated(t testing.TB, st *shard.Table, n int) (string, []string, []*server.Server, []*replica.Replica) {
	t.Helper()
	log := oplog.New(st.Clock(), 0)
	if err := st.AttachOplog(log); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, server.Options{Logger: testLogger(t), OpLog: log})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	primaryAddr := l.Addr().String()

	addrs := make([]string, n)
	srvs := make([]*server.Server, n)
	reps := make([]*replica.Replica, n)
	for i := 0; i < n; i++ {
		rep, err := replica.Open(primaryAddr, replica.Options{Logger: testLogger(t)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rep.Close() })
		fl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fsrv := server.New(rep.Store(), server.Options{Logger: testLogger(t), Replica: rep})
		go fsrv.Serve(fl)
		t.Cleanup(func() { fsrv.Close() })
		addrs[i] = fl.Addr().String()
		srvs[i] = fsrv
		reps[i] = rep
	}
	return primaryAddr, addrs, srvs, reps
}

func waitFollowerEpoch(t testing.TB, rep *replica.Replica, e uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedEpoch() < e {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epoch %d, want %d (err=%v)", rep.AppliedEpoch(), e, rep.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHello: the hello exchange announces the role, and a Dial that
// succeeded agreed on wire.ProtocolVersion (a client refuses any other).
func TestHello(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, _, _ := startServer(t, flat)
	if c.Role() != client.RolePrimary {
		t.Fatalf("role %v, want primary", c.Role())
	}
}

// TestServerLevelFieldCoverage stands up a primary with an op log and one
// follower and finds every server-level number a client can ask for in
// one of two places: the hello exchange (role; protocol by a Dial that
// succeeded) or a series of that server's metrics snapshot, with a
// plausible value.  The rows are the fields the retired server-stats
// opcode carried, so none was lost with it.
func TestServerLevelFieldCoverage(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	paddr, faddrs, _, reps := startReplicated(t, flat, 1)
	pc, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	fc, err := client.Dial(faddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := pc.Insert([]any{uint64(1), uint32(2), "a"}); err != nil {
		t.Fatal(err)
	}
	e := flat.Clock().Capture()
	waitFollowerEpoch(t, reps[0], e)
	if pc.Role() != client.RolePrimary || fc.Role() != client.RoleFollower {
		t.Fatalf("hello roles: primary %v, follower %v", pc.Role(), fc.Role())
	}

	ps, err := pc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	get := func(samples []client.Metric, name string) float64 {
		t.Helper()
		v, ok := client.MetricValue(samples, name)
		if !ok {
			t.Fatalf("metrics snapshot lacks %s", name)
		}
		return v
	}
	first, next := get(ps, "hyrise_oplog_first_lsn"), get(ps, "hyrise_oplog_next_lsn")
	applied, primary := get(fs, "hyrise_replica_applied_epoch"), get(fs, "hyrise_replica_primary_epoch")
	for _, f := range []struct {
		field   string // the number a client reads
		samples []client.Metric
		series  string
		ok      func(v float64) bool
	}{
		{"replicating (op log attached)", ps, "hyrise_oplog_next_lsn", func(v float64) bool { return v >= 1 }},
		{"op-log first LSN", ps, "hyrise_oplog_first_lsn", func(v float64) bool { return v <= next }},
		{"op-log next LSN", ps, "hyrise_oplog_next_lsn", func(v float64) bool { return v > first }},
		{"op-log entries", ps, "hyrise_oplog_entries", func(v float64) bool { return v > 0 && v == next-first }},
		{"followers", ps, "hyrise_oplog_subscribers", func(v float64) bool { return v == 1 }},
		{"primary epoch (primary)", ps, "hyrise_epoch_current", func(v float64) bool { return v >= float64(e) }},
		{"primary epoch (follower)", fs, "hyrise_replica_primary_epoch", func(v float64) bool { return v >= applied }},
		{"applied epoch", fs, "hyrise_replica_applied_epoch", func(v float64) bool { return v >= float64(e) }},
		{"lag", fs, "hyrise_replica_lag_epochs", func(v float64) bool { return v <= primary }},
		{"applied LSN", fs, "hyrise_replica_applied_lsn", func(v float64) bool { return v >= 1 && v <= next }},
		{"uptime", ps, "hyrise_server_uptime_seconds", func(v float64) bool { return v > 0 }},
		{"uptime (follower)", fs, "hyrise_server_uptime_seconds", func(v float64) bool { return v > 0 }},
		{"per-op requests", ps, `hyrise_server_requests_total{op="insert"}`, func(v float64) bool { return v == 1 }},
		{"per-op errors", ps, `hyrise_server_errors_total{op="insert"}`, func(v float64) bool { return v == 0 }},
		{"active shards", fs, "hyrise_store_shards", func(v float64) bool { return v == 1 }},
		{"partitions", fs, "hyrise_store_partitions", func(v float64) bool { return v == 1 }},
		{"shard-map version", fs, "hyrise_shard_map_version", func(v float64) bool { return v == 1 }},
		{"resharding", ps, "hyrise_store_resharding", func(v float64) bool { return v == 0 }},
	} {
		if v := get(f.samples, f.series); !f.ok(v) {
			t.Errorf("%s: %s = %v", f.field, f.series, v)
		}
	}
	// The op-log series belong to a primary, the apply-lag series to a
	// follower; neither server reports the other's.
	for _, miss := range []struct {
		samples []client.Metric
		series  string
	}{{ps, "hyrise_replica_lag_epochs"}, {fs, "hyrise_oplog_subscribers"}} {
		if v, ok := client.MetricValue(miss.samples, miss.series); ok {
			t.Errorf("%s = %v reported by the wrong role", miss.series, v)
		}
	}
}

// TestSubscribeRefusesOtherProtocol: a subscribe handshake carrying
// another protocol version is refused before anything is streamed, with
// both versions named, and registers no subscriber.
func TestSubscribeRefusesOtherProtocol(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	paddr, _, _, _ := startReplicated(t, flat, 0)
	nc, err := net.Dial("tcp", paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var req wire.Buffer
	req.U8(wire.OpSubscribe)
	req.U32(6)
	req.U8(wire.SubSnapshot)
	req.U64(0)
	if err := wire.WriteFrame(nc, req.Bytes()); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(resp)
	status, _ := r.U8()
	msg, _ := r.String()
	want := fmt.Sprintf("protocol version 6, this server %d", wire.ProtocolVersion)
	if status != wire.StatusErrBadRequest || !strings.Contains(msg, want) {
		t.Fatalf("subscribe at version 6: status 0x%02x %q, want StatusErrBadRequest naming %q", status, msg, want)
	}
	pc, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	samples, err := pc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := client.MetricValue(samples, "hyrise_oplog_subscribers"); !ok || n != 0 {
		t.Fatalf("refused subscribe left subscribers = %v, %v", n, ok)
	}
}

func TestFollowerRejectsWrites(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, faddrs, _, _ := startReplicated(t, flat, 1)
	fc, err := client.Dial(faddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := fc.Insert([]any{uint64(1), uint32(1), "x"}); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("insert on follower: %v, want ErrReadOnly", err)
	}
	if _, err := fc.Update(0, map[string]any{"qty": uint32(2)}); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("update on follower: %v, want ErrReadOnly", err)
	}
	if err := fc.Delete(0); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("delete on follower: %v, want ErrReadOnly", err)
	}
	// CreateIndex is a local read optimization, not a data mutation, so
	// followers accept it (see the package doc's secondary-index note).
	if err := fc.CreateIndex("order_id"); err != nil {
		t.Fatalf("create index on follower: %v", err)
	}
	stats, err := fc.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Column != "order_id" {
		t.Fatalf("follower index stats %+v want one entry for order_id", stats)
	}
}

// TestFollowerRouting verifies the pooled client sends eligible reads to
// followers — snapshot reads at an epoch they have applied, answered with
// no follower-side pin, and staleness-bounded latest reads — and falls
// back to the primary when followers are unavailable.
func TestFollowerRouting(t *testing.T) {
	st, err := shard.New("sales", salesSchema(), "order_id", 4)
	if err != nil {
		t.Fatal(err)
	}
	paddr, faddrs, fsrvs, reps := startReplicated(t, st, 2)
	c, err := client.DialOptions(paddr, client.Options{
		Followers:    faddrs,
		MaxStaleness: 1 << 20, // effectively unbounded for this test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows := make([][]any, 32)
	for i := range rows {
		rows[i] = []any{uint64(i), uint32(i), "x"}
	}
	if _, err := c.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(snap)
	e := uint64(snap) // a Snap is its epoch
	for _, rep := range reps {
		waitFollowerEpoch(t, rep, e)
	}

	// followerReads sums the valid_rows and sum requests the followers
	// handled, read from their per-op series.
	followerReads := func() float64 {
		var n float64
		for _, s := range fsrvs {
			for _, m := range s.Registry().Snapshot() {
				switch m.Name {
				case `hyrise_server_requests_total{op="valid_rows"}`, `hyrise_server_requests_total{op="sum"}`:
					n += m.Value
				}
			}
		}
		return n
	}
	before := followerReads()
	for i := 0; i < 10; i++ {
		n, err := c.ValidRowsAt(snap)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(rows) {
			t.Fatalf("valid rows %d, want %d", n, len(rows))
		}
		sum, err := c.SumAt(snap, "qty")
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(31 * 32 / 2); sum != want {
			t.Fatalf("sum %d, want %d", sum, want)
		}
	}
	if followerReads() == before {
		t.Fatal("no snapshot reads were routed to followers")
	}

	// Latest reads route under the staleness bound too.
	before = followerReads()
	for i := 0; i < 10; i++ {
		if _, err := c.ValidRows(); err != nil {
			t.Fatal(err)
		}
	}
	if followerReads() == before {
		t.Fatal("no latest reads were routed to followers")
	}

	// Kill both followers: every read falls back to the primary, with
	// identical results.
	for _, s := range fsrvs {
		s.Close()
	}
	for i := 0; i < 4; i++ {
		n, err := c.ValidRowsAt(snap)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(rows) {
			t.Fatalf("fallback valid rows %d, want %d", n, len(rows))
		}
	}
}

// TestPinEpochGuards exercises the guards on a follower read at a primary
// snapshot's epoch E, which the follower answers with no pin of its own:
// exactly, or with ErrBadSnapshot — when E is above its applied epoch, or
// when its own merge has reclaimed past E — and then the routed client
// falls back to the primary, which holds the pin, returns its answer, and
// benches the refusing follower for a cooldown.
func TestPinEpochGuards(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	paddr, faddrs, fsrvs, reps := startReplicated(t, flat, 1)
	c, err := client.DialOptions(paddr, client.Options{Followers: faddrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc, err := client.Dial(faddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	id, err := c.Insert([]any{uint64(1), uint32(1), "a"})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(snap)
	followerErrs := func() float64 {
		for _, m := range fsrvs[0].Registry().Snapshot() {
			if m.Name == `hyrise_server_errors_total{op="valid_rows"}` {
				return m.Value
			}
		}
		return 0
	}
	// routedRead reads at snap through the routed client rc; want is the
	// primary's answer, and refused whether the follower must refuse it.
	routedRead := func(stage string, rc *client.Client, snap client.Snap, want int, refused bool) {
		t.Helper()
		if _, err := fc.ValidRowsAt(snap); refused != errors.Is(err, client.ErrBadSnapshot) {
			t.Fatalf("%s: follower read at epoch %d: %v, want refused %v", stage, snap, err, refused)
		}
		before := followerErrs()
		if n, err := rc.ValidRowsAt(snap); err != nil || n != want {
			t.Fatalf("%s: routed read at epoch %d: %d, %v; want %d", stage, snap, n, err, want)
		}
		if got := followerErrs() - before; refused != (got > 0) {
			t.Fatalf("%s: the follower refused %v routed reads, want refused %v", stage, got, refused)
		}
	}
	waitFollowerEpoch(t, reps[0], uint64(snap))
	routedRead("applied", c, snap, 1, false)

	// An update after E, merged on the follower with no pin there, moves
	// the follower's GC watermark past E; the primary still pins E.
	if _, err := c.Update(id, map[string]any{"qty": uint32(2)}); err != nil {
		t.Fatal(err)
	}
	waitFollowerEpoch(t, reps[0], flat.Clock().Capture())
	rep, err := reps[0].Store().RequestMerge(context.Background(), table.MergeOptions{})
	if err != nil || rep.RowsReclaimed == 0 {
		t.Fatalf("follower merge reclaimed %d, %v", rep.RowsReclaimed, err)
	}
	routedRead("reclaimed on the follower", c, snap, 1, true)

	// The refusal benched the follower: the next read at snap goes straight
	// to the primary, so a long-lived snapshot costs one wasted round trip
	// per cooldown, not one per read.
	before := followerErrs()
	if n, err := c.ValidRowsAt(snap); err != nil || n != 1 {
		t.Fatalf("benched: routed read at epoch %d: %d, %v; want 1", snap, n, err)
	}
	if got := followerErrs() - before; got != 0 {
		t.Fatalf("benched: the follower refused %v more routed reads, want 0", got)
	}

	// Above the applied epoch of a follower frozen below it: refused, and
	// answered by the primary (through a new routed client, as c's
	// follower is benched).
	c2, err := client.DialOptions(paddr, client.Options{Followers: faddrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	reps[0].Close()
	if _, err := c.Insert([]any{uint64(2), uint32(2), "b"}); err != nil {
		t.Fatal(err)
	}
	later, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(later)
	routedRead("not applied", c2, later, 2, true)
}

// TestStoppedFollowerSaysSo: a follower that falls off its primary's op
// log stops for good, and says so.  The primary keeps a log of 4 ops; its
// server restarts after 100 inserts, so the follower's resume position
// (after the one row it applied) is gone and the primary refuses the resume.
// The replica reports the failure in Err, the follower's /healthz answers
// 503 with it, hyrise_replica_stopped reads 1, and a routed client's latest
// reads go to the primary instead of the follower's frozen store.
func TestStoppedFollowerSaysSo(t *testing.T) {
	st, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	log := oplog.New(st.Clock(), 4)
	if err := st.AttachOplog(log); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert([]any{uint64(1000), uint32(0), "first"}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	paddr := l.Addr().String()
	srv := server.New(st, server.Options{Logger: testLogger(t), OpLog: log})
	go srv.Serve(l)
	rep, err := replica.Open(paddr, replica.Options{Logger: testLogger(t), RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fsrv := server.New(rep.Store(), server.Options{Logger: testLogger(t), Replica: rep})
	go fsrv.Serve(fl)
	defer fsrv.Close()

	srv.Close()
	const rows = 100
	for i := range rows {
		if _, err := st.Insert([]any{uint64(i), uint32(i), "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if l, err = net.Listen("tcp", paddr); err != nil {
		t.Fatal(err)
	}
	srv = server.New(st, server.Options{Logger: testLogger(t), OpLog: log})
	go srv.Serve(l)
	defer srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	for rep.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the follower did not stop")
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(rep.Err().Error(), "cannot resume") {
		t.Fatalf("replica stopped with %v, want the primary's refusal to resume", rep.Err())
	}
	rec := httptest.NewRecorder()
	fsrv.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), rep.Err().Error()) {
		t.Fatalf("stopped follower /healthz: %d %q, want 503 with %v", rec.Code, rec.Body.String(), rep.Err())
	}
	fc, err := client.Dial(fl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	samples, err := fc.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := client.MetricValue(samples, "hyrise_replica_stopped"); !ok || v != 1 {
		t.Fatalf("hyrise_replica_stopped = %v (reported %v), want 1", v, ok)
	}
	c, err := client.DialOptions(paddr, client.Options{Followers: []string{fl.Addr().String()}, MaxStaleness: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for range 4 {
		if n, err := c.ValidRows(); err != nil || n != rows+1 {
			t.Fatalf("routed latest read: %d, %v; want the primary's %d (the follower holds %d)", n, err, rows+1, rep.Store().ValidRows())
		}
	}
}
