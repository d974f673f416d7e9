package replica_test

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hyrise/internal/oplog"
	"hyrise/internal/persist"
	"hyrise/internal/replica"
	"hyrise/internal/server"
	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/wire"
)

// testLogWriter adapts t.Logf so replica slog output lands in the test
// log.
type testLogWriter struct{ t testing.TB }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

func replSchema() table.Schema {
	return table.Schema{
		{Name: "k", Type: table.Uint64},
		{Name: "v", Type: table.Uint32},
		{Name: "s", Type: table.String},
	}
}

// primary bundles a store, its op log and a server over it.
type primary struct {
	st   *shard.Table
	log  *oplog.Log
	srv  *server.Server
	addr string
}

func startPrimary(t testing.TB, st *shard.Table) *primary {
	t.Helper()
	log := oplog.New(st.Clock(), 0)
	if err := st.AttachOplog(log); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, server.Options{OpLog: log})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return &primary{st: st, log: log, srv: srv, addr: l.Addr().String()}
}

func openReplica(t testing.TB, addr string) *replica.Replica {
	t.Helper()
	rep, err := replica.Open(addr, replica.Options{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	return rep
}

// waitApplied blocks until the replica's applied epoch reaches e.
func waitApplied(t testing.TB, rep *replica.Replica, e uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedEpoch() < e {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at epoch %d (lsn %d), want %d; err=%v",
				rep.AppliedEpoch(), rep.AppliedLSN(), e, rep.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// requireIdentical asserts the replica's partitions are bit-identical to
// the primary's: same stable ids, same begin/end epochs, same values.
func requireIdentical(t testing.TB, want, got *shard.Table) {
	t.Helper()
	wp, gp := want.Partitions(), got.Partitions()
	if len(wp) != len(gp) {
		t.Fatalf("partition count: primary %d, replica %d", len(wp), len(gp))
	}
	for i := range wp {
		if w, g := wp[i].NextRowID(), gp[i].NextRowID(); w != g {
			t.Fatalf("shard %d nextID: primary %d, replica %d", i, w, g)
		}
		wids, gids := wp[i].RowIDs(), gp[i].RowIDs()
		if !reflect.DeepEqual(wids, gids) {
			t.Fatalf("shard %d ids differ:\nprimary %v\nreplica %v", i, wids, gids)
		}
		wb, we := wp[i].RowEpochs()
		gb, ge := gp[i].RowEpochs()
		if !reflect.DeepEqual(wb, gb) || !reflect.DeepEqual(we, ge) {
			t.Fatalf("shard %d epochs differ:\nprimary %v / %v\nreplica %v / %v", i, wb, we, gb, ge)
		}
		for _, id := range wids {
			wv, err := wp[i].Row(id)
			if err != nil {
				t.Fatal(err)
			}
			gv, err := gp[i].Row(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wv, gv) {
				t.Fatalf("shard %d row %d: primary %v, replica %v", i, id, wv, gv)
			}
		}
	}
}

func newPrimaryStores(t *testing.T) map[string]*shard.Table {
	t.Helper()
	flat, err := shard.New("repl", replSchema(), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.New("repl", replSchema(), "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*shard.Table{"shards=1": flat, "shards=4": sharded}
}

func TestReplicaBootstrapAndFollow(t *testing.T) {
	for name, st := range newPrimaryStores(t) {
		t.Run(name, func(t *testing.T) {
			p := startPrimary(t, st)

			// Pre-subscribe state arrives via the snapshot image.
			ids := make([]int, 0, 16)
			for i := 0; i < 8; i++ {
				id, err := p.st.Insert([]any{uint64(i), uint32(i * 10), fmt.Sprintf("pre-%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			clock := p.st.Partitions()[0].Clock()
			clock.Capture()

			rep := openReplica(t, p.addr)
			if rep.AppliedEpoch() == 0 {
				t.Fatal("Open returned before the first heartbeat")
			}

			// Post-subscribe mutations arrive via the live op stream,
			// including a key-moving update on the sharded topology.
			if _, err := p.st.InsertRows([][]any{
				{uint64(100), uint32(1), "live-a"},
				{uint64(101), uint32(2), "live-b"},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := p.st.Update(ids[0], map[string]any{"v": uint32(999)}); err != nil {
				t.Fatal(err)
			}
			if _, err := p.st.Update(ids[1], map[string]any{"k": uint64(7777)}); err != nil {
				t.Fatal(err)
			}
			if err := p.st.Delete(ids[2]); err != nil {
				t.Fatal(err)
			}
			e := clock.Capture()
			waitApplied(t, rep, e)
			requireIdentical(t, p.st, rep.Store())

			// The replica's store rejects nothing locally (it is a plain
			// store), but reads at the applied epoch match the primary.
			if w, g := p.st.ValidRowsAt(table.ViewAt(e)), rep.Store().ValidRowsAt(table.ViewAt(e)); w != g {
				t.Fatalf("valid rows at %d: primary %d, replica %d", e, w, g)
			}
		})
	}
}

func TestReplicaResubscribe(t *testing.T) {
	flat, err := shard.New("repl", replSchema(), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := startPrimary(t, flat)
	clock := flat.Clock()
	if _, err := flat.Insert([]any{uint64(1), uint32(1), "a"}); err != nil {
		t.Fatal(err)
	}
	clock.Capture()

	rep, err := replica.Open(p.addr, replica.Options{
		Logger:   testLogger(t),
		RetryMin: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// Kill the server but keep the store and log; the stream drops.
	p.srv.Close()

	// Mutations while the replica is disconnected land in the log.
	if _, err := flat.Insert([]any{uint64(2), uint32(2), "b"}); err != nil {
		t.Fatal(err)
	}

	// Re-listen on the same address with a fresh server over the same
	// store; the replica must resume the tail from its applied LSN.
	var l net.Listener
	for i := 0; ; i++ {
		l, err = net.Listen("tcp", p.addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", p.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv2 := server.New(flat, server.Options{OpLog: p.log})
	go srv2.Serve(l)
	defer srv2.Close()

	e := clock.Capture()
	waitApplied(t, rep, e)
	requireIdentical(t, flat, rep.Store())
	if rep.Stats().Resubscribes == 0 {
		t.Fatal("expected at least one resubscribe")
	}
}

// TestReplicaChurnConsistency hammers a sharded primary with concurrent
// key-moving writers while continuously checking that follower reads at
// the applied epoch are identical to primary reads at the same epoch.
func TestReplicaChurnConsistency(t *testing.T) {
	st, err := shard.New("repl", replSchema(), "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	p := startPrimary(t, st)
	clock := st.Clock()

	const rows = 64
	ids := make([]int, rows)
	for i := range ids {
		id, err := st.Insert([]any{uint64(i), uint32(i), fmt.Sprintf("r%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	clock.Capture()
	rep := openReplica(t, p.addr)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes access to the live id of each slot
	live := append([]int(nil), ids...)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				slot := (w*17 + i) % rows
				mu.Lock()
				id := live[slot]
				// Move the row to a fresh key so it hops shards.
				nid, err := st.Update(id, map[string]any{"k": uint64(slot + (i+1)*rows)})
				if err == nil {
					live[slot] = nid
				}
				mu.Unlock()
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%8 == 0 {
					clock.Capture()
				}
			}
		}(w)
	}

	sumP, err := shard.NumericColumnOf[uint64](st, "k")
	if err != nil {
		t.Fatal(err)
	}
	sumR, err := shard.NumericColumnOf[uint64](rep.Store(), "k")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	checks := 0
	for time.Now().Before(deadline) {
		e := rep.AppliedEpoch()
		if e == 0 {
			continue
		}
		// The row population never shrinks, and epochs isolate: at any
		// applied epoch both sides must agree exactly.
		pv, rv := st.ValidRowsAt(table.ViewAt(e)), rep.Store().ValidRowsAt(table.ViewAt(e))
		if pv != rv {
			t.Fatalf("valid rows at %d: primary %d, replica %d", e, pv, rv)
		}
		ps, rs := sumP.SumAt(table.ViewAt(e)), sumR.SumAt(table.ViewAt(e))
		if ps != rs {
			t.Fatalf("sum(k) at %d: primary %d, replica %d", e, ps, rs)
		}
		checks++
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if checks == 0 {
		t.Fatal("no consistency checks ran")
	}

	// Quiesce and verify full bit-identity.
	e := clock.Capture()
	waitApplied(t, rep, e)
	requireIdentical(t, st, rep.Store())
}

// TestOpenReportsPrimaryAbort: a primary that grants the subscription and
// then aborts the bootstrap image — before any chunk, or after part of one
// — fails Open with ErrPrimaryAborted carrying the primary's own reason,
// not with a complaint about the bytes that never came.
func TestOpenReportsPrimaryAbort(t *testing.T) {
	for name, chunk := range map[string][]byte{
		"before any chunk": nil,
		"mid image":        []byte("HYRS\x06\x00"),
	} {
		t.Run(name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			served := make(chan error, 1)
			go func() {
				nc, err := l.Accept()
				if err != nil {
					served <- err
					return
				}
				defer nc.Close()
				br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
				req, err := wire.ReadFrame(br)
				if err != nil || len(req) == 0 || req[0] != wire.OpSubscribe {
					served <- fmt.Errorf("subscribe request %x: %v", req, err)
					return
				}
				var ok, fail wire.Buffer
				ok.U8(wire.StatusOK)
				ok.U8(wire.SubSnapshot)
				ok.U64(0)
				fail.U8(wire.FrameError)
				fail.String("snapshot stream: disk on fire")
				frames := [][]byte{ok.Bytes()}
				if chunk != nil {
					frames = append(frames, append([]byte{wire.FrameSnapChunk}, chunk...))
				}
				for _, f := range append(frames, fail.Bytes()) {
					if err := wire.WriteFrame(bw, f); err != nil {
						served <- err
						return
					}
				}
				served <- bw.Flush()
			}()

			rep, err := replica.Open(l.Addr().String(), replica.Options{Logger: testLogger(t)})
			if err == nil {
				rep.Close()
				t.Fatal("Open succeeded against a primary that aborted the image")
			}
			if !errors.Is(err, replica.ErrPrimaryAborted) || !strings.Contains(err.Error(), "disk on fire") ||
				errors.Is(err, persist.ErrFormat) {
				t.Fatalf("Open: %v, want ErrPrimaryAborted with the primary's reason", err)
			}
			if err := <-served; err != nil {
				t.Fatalf("fake primary: %v", err)
			}
		})
	}
}
