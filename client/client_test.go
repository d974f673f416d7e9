package client

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hyrise/internal/server"
	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/wire"
)

func testServer(t *testing.T) string {
	t.Helper()
	flat, err := shard.New("kv", table.Schema{
		{Name: "k", Type: table.Uint64},
		{Name: "qty", Type: table.Uint32},
		{Name: "name", Type: table.String},
	}, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(flat, server.Options{})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

func TestCoerceType(t *testing.T) {
	cases := []struct {
		typ  Type
		in   any
		want any
		err  error
	}{
		{Uint64, uint64(7), uint64(7), nil},
		{Uint64, 7, uint64(7), nil},
		{Uint64, int64(7), uint64(7), nil},
		{Uint64, uint32(7), uint64(7), nil},
		{Uint64, -1, nil, ErrColumnType},
		{Uint64, "7", nil, ErrColumnType},
		{Uint32, uint32(7), uint32(7), nil},
		{Uint32, 7, uint32(7), nil},
		{Uint32, uint64(1 << 40), nil, ErrColumnType},
		{Uint32, -3, nil, ErrColumnType},
		{String, "x", "x", nil},
		{String, 7, nil, ErrColumnType},
	}
	for _, tc := range cases {
		got, err := coerceType(tc.typ, "c", tc.in)
		if !errors.Is(err, tc.err) {
			t.Errorf("coerce(%v, %T %v): err=%v want %v", tc.typ, tc.in, tc.in, err, tc.err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("coerce(%v, %v) = %v (%T) want %v (%T)", tc.typ, tc.in, got, got, tc.want, tc.want)
		}
	}
}

func TestErrFromStatus(t *testing.T) {
	codes := map[uint8]error{
		wire.StatusErr:                 ErrServer,
		wire.StatusErrRowRange:         ErrRowRange,
		wire.StatusErrRowInvalid:       ErrRowInvalid,
		wire.StatusErrNoColumn:         ErrNoColumn,
		wire.StatusErrArity:            ErrArity,
		wire.StatusErrMergeBusy:        ErrMergeBusy,
		wire.StatusErrBadSnapshot:      ErrBadSnapshot,
		wire.StatusErrBadRequest:       ErrBadRequest,
		wire.StatusErrColumnType:       ErrColumnType,
		wire.StatusErrTooManySnapshots: ErrTooManySnapshots,
		0xff:                           ErrServer, // unknown codes degrade to generic
	}
	for code, sentinel := range codes {
		if err := errFromStatus(code, "detail"); !errors.Is(err, sentinel) {
			t.Errorf("status 0x%02x: %v does not unwrap to %v", code, err, sentinel)
		}
	}
}

// TestInsertBatchPipelining pushes a batch spanning several chunk frames
// through one connection and checks ids come back in input order.
func TestInsertBatchPipelining(t *testing.T) {
	addr := testServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Enough chunks that the responses alone overflow a socket buffer:
	// guards the concurrent-drain design that keeps huge pipelined
	// batches from deadlocking on full TCP buffers.
	n := batchChunk*40 + 137 // 41 pipelined frames
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{uint64(i), uint32(i % 9), "bulk"}
	}
	ids, err := c.InsertBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n {
		t.Fatalf("got %d ids want %d", len(ids), n)
	}
	// Flat-table ids are dense and insertion-ordered, so input order is
	// directly checkable.
	for i, id := range ids {
		if id != i {
			t.Fatalf("id[%d] = %d", i, id)
		}
	}
	if got, _ := c.ValidRows(); got != n {
		t.Fatalf("valid rows %d want %d", got, n)
	}

	// A bad row inside a chunk fails that chunk atomically; the client
	// reports the error and the connection stays usable.
	bad := make([][]any, 3)
	bad[0] = []any{uint64(1), uint32(1), "ok"}
	bad[1] = []any{uint64(2), uint32(1), "ok"}
	bad[2] = []any{uint64(3)} // arity
	if _, err := c.InsertBatch(bad); !errors.Is(err, ErrArity) {
		t.Fatalf("bad batch err=%v want ErrArity", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after failed batch: %v", err)
	}
}

// TestClientPoolConcurrency hammers one pooled client from many
// goroutines; the pool must serve them all without cross-talk.
func TestClientPoolConcurrency(t *testing.T) {
	addr := testServer(t)
	c, err := DialOptions(addr, Options{Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines = 12
	const each = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := uint64(g*each + i)
				id, err := c.Insert([]any{k, uint32(1), "c"})
				if err != nil {
					t.Errorf("g%d insert: %v", g, err)
					return
				}
				rows, err := c.Lookup("k", k)
				if err != nil || len(rows) != 1 || rows[0] != id {
					t.Errorf("g%d lookup(%d): %v %v", g, k, rows, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, _ := c.ValidRows(); got != goroutines*each {
		t.Fatalf("valid rows %d want %d", got, goroutines*each)
	}
}

// testServerSrv is testServer, also exposing the server for observation.
func testServerSrv(t *testing.T) (string, *server.Server) {
	t.Helper()
	flat, err := shard.New("kv", table.Schema{
		{Name: "k", Type: table.Uint64},
		{Name: "qty", Type: table.Uint32},
		{Name: "name", Type: table.String},
	}, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(flat, server.Options{})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), srv
}

// TestCloseReleaseRace races Close against connections being returned to
// the pool.  Before the post-enqueue re-check in release, a connection
// enqueued just after Close's drain loop finished stayed open forever;
// the leak shows up as server sessions that never terminate.  Run with
// -race to also catch the data-race half.
func TestCloseReleaseRace(t *testing.T) {
	addr, srv := testServerSrv(t)
	for iter := 0; iter < 30; iter++ {
		c, err := DialOptions(addr, Options{Conns: 4})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Hammer until the close lands; every error path must
				// still return or discard its connection.
				for c.Ping() == nil {
				}
			}()
		}
		// Land the close mid-traffic.
		c.Close()
		wg.Wait()
	}
	// Every pooled connection of every iteration must be closed: the
	// server eventually observes all its sessions gone.
	deadline := time.Now().Add(10 * time.Second)
	for srv.ActiveConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d leaked connection(s) still open server-side", srv.ActiveConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClientClosed(t *testing.T) {
	addr := testServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err=%v want ErrClientClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestDialRefusesNonServer(t *testing.T) {
	// Nothing listening.
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

// TestDialRefusesOtherProtocol dials stub servers that are not of this
// client's protocol generation — one answers hello with version 4, one
// does not know hello at all — and expects Dial to fail with the typed
// error instead of settling on an older protocol.
func TestDialRefusesOtherProtocol(t *testing.T) {
	for name, answer := range map[string]func(out *wire.Buffer){
		"hello answers version 4": func(out *wire.Buffer) {
			out.U8(wire.StatusOK)
			out.U32(4)
			out.U8(uint8(RolePrimary))
		},
		"hello is an unknown opcode": func(out *wire.Buffer) {
			out.U8(wire.StatusErrBadRequest)
			out.String("unknown opcode 0x17")
		},
	} {
		t.Run(name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			hellos := make(chan uint32, 1) // the stub serves one request
			go func() {
				nc, err := l.Accept()
				if err != nil {
					return
				}
				defer nc.Close()
				payload, err := wire.ReadFrame(nc)
				if err != nil || len(payload) != 5 || payload[0] != wire.OpHello {
					return
				}
				ver, _ := wire.NewReader(payload[1:]).U32()
				hellos <- ver
				var out wire.Buffer
				answer(&out)
				wire.WriteFrame(nc, out.Bytes())
				wire.ReadFrame(nc) // hold the connection until the client hangs up
			}()
			c, err := Dial(l.Addr().String())
			if err == nil {
				c.Close()
				t.Fatal("Dial succeeded against a server of another protocol version")
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("Dial error %v, want ErrBadRequest", err)
			}
			select {
			case ver := <-hellos:
				if ver != wire.ProtocolVersion {
					t.Fatalf("client announced version %d, want %d", ver, wire.ProtocolVersion)
				}
			default:
				t.Fatal("Dial failed before sending hello as its first request")
			}
		})
	}
}

// TestCreateIndexRoundTrip exercises the index opcodes end to end:
// build an index over the wire, read its statistics back, and check
// that indexed lookups return the same rows as before.
func TestCreateIndexRoundTrip(t *testing.T) {
	addr := testServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 500
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{uint64(i % 50), uint32(i % 7), "r"}
	}
	if _, err := c.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Merge(MergeOptions{}); err != nil {
		t.Fatal(err)
	}

	before, err := c.Lookup("k", uint64(17))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != n/50 {
		t.Fatalf("lookup before index: %d rows want %d", len(before), n/50)
	}

	if err := c.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second call is a no-op, not an error.
	if err := c.CreateIndex("k"); err != nil {
		t.Fatalf("repeat CreateIndex: %v", err)
	}
	if err := c.CreateIndex("nope"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("CreateIndex(nope) err=%v want ErrNoColumn", err)
	}

	stats, err := c.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Column != "k" {
		t.Fatalf("index stats %+v want one entry for k", stats)
	}
	if stats[0].Postings != n {
		t.Fatalf("postings %d want %d", stats[0].Postings, n)
	}
	if stats[0].Builds == 0 || stats[0].SizeBytes == 0 {
		t.Fatalf("stats not populated: %+v", stats[0])
	}

	after, err := c.Lookup("k", uint64(17))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("indexed lookup %d rows want %d", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("row %d: indexed %d scan %d", i, after[i], before[i])
		}
	}

	// The index stays current through post-index writes and merges.
	if _, err := c.Insert([]any{uint64(17), uint32(1), "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Merge(MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := c.CountEqual("k", uint64(17))
	if err != nil {
		t.Fatal(err)
	}
	if got != len(before)+1 {
		t.Fatalf("count after merge %d want %d", got, len(before)+1)
	}
	stats, err = c.IndexStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Postings != n+1 || stats[0].Builds < 2 {
		t.Fatalf("stats after merge %+v want %d postings, >=2 builds", stats[0], n+1)
	}
}
