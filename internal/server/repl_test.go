package server_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"hyrise/client"
	"hyrise/internal/oplog"
	"hyrise/internal/replica"
	"hyrise/internal/server"
	"hyrise/internal/shard"
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

func TestHello(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, _, _ := startServer(t, flat)
	if c.Role() != client.RolePrimary {
		t.Fatalf("role %v, want primary", c.Role())
	}
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Protocol != wire.ProtocolVersion || st.Role != client.RolePrimary {
		t.Fatalf("server stats announce protocol %d role %v, want %d/primary", st.Protocol, st.Role, wire.ProtocolVersion)
	}
}

func TestServerStatsPrimaryAndFollower(t *testing.T) {
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
	if _, err := pc.Insert([]any{uint64(1), uint32(2), "a"}); err != nil {
		t.Fatal(err)
	}
	e := flat.Clock().Capture()
	waitFollowerEpoch(t, reps[0], e)

	ps, err := pc.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Role != client.RolePrimary || !ps.Replicating {
		t.Fatalf("primary stats: %+v", ps)
	}
	if ps.Followers != 1 {
		t.Fatalf("primary sees %d followers, want 1", ps.Followers)
	}
	if ps.OplogEntries == 0 {
		t.Fatalf("primary oplog empty: %+v", ps)
	}

	fc, err := client.Dial(faddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if fc.Role() != client.RoleFollower {
		t.Fatalf("follower role %v", fc.Role())
	}
	fs, err := fc.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Role != client.RoleFollower {
		t.Fatalf("follower stats role %v", fs.Role)
	}
	if fs.AppliedEpoch < e {
		t.Fatalf("follower applied %d, want >= %d", fs.AppliedEpoch, e)
	}
	if fs.PrimaryEpoch < fs.AppliedEpoch {
		t.Fatalf("follower primary epoch %d < applied %d", fs.PrimaryEpoch, fs.AppliedEpoch)
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
// followers — exactly-pinned snapshot reads and staleness-bounded latest
// reads — and falls back to the primary when followers are unavailable.
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
	e, ok := c.SnapshotEpoch(snap)
	if !ok {
		t.Fatal("snapshot epoch unknown despite followers configured")
	}
	for _, rep := range reps {
		waitFollowerEpoch(t, rep, e)
	}

	before := make([]uint64, len(fsrvs))
	for i, s := range fsrvs {
		before[i] = s.Requests()
	}
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
	routed := uint64(0)
	for i, s := range fsrvs {
		routed += s.Requests() - before[i]
	}
	if routed == 0 {
		t.Fatal("no snapshot reads were routed to followers")
	}

	// Latest reads route under the staleness bound too.
	before2 := make([]uint64, len(fsrvs))
	for i, s := range fsrvs {
		before2[i] = s.Requests()
	}
	for i := 0; i < 10; i++ {
		if _, err := c.ValidRows(); err != nil {
			t.Fatal(err)
		}
	}
	routed2 := uint64(0)
	for i, s := range fsrvs {
		routed2 += s.Requests() - before2[i]
	}
	if routed2 == 0 {
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

// TestPinEpochGuards exercises OpPinEpoch's refusal paths end to end.
func TestPinEpochGuards(t *testing.T) {
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
	if _, err := pc.Insert([]any{uint64(1), uint32(1), "a"}); err != nil {
		t.Fatal(err)
	}
	e := flat.Clock().Capture()
	waitFollowerEpoch(t, reps[0], e)

	// A snapshot read through a routed client at an epoch the follower
	// has NOT applied must fall back to the primary and still succeed.
	c, err := client.DialOptions(paddr, client.Options{Followers: faddrs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reps[0].Close() // freeze the follower's applied epoch
	if _, err := pc.Insert([]any{uint64(2), uint32(2), "b"}); err != nil {
		t.Fatal(err)
	}
	flat.Clock().Capture()
	snap, err := c.Snapshot() // epoch beyond the frozen follower
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(snap)
	n, err := c.ValidRowsAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("valid rows %d, want 2", n)
	}
}
