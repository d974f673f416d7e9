package server

import (
	"bufio"
	"context"
	"math"
	"net"
	"testing"
	"time"

	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/wire"
)

func fuzzStore(t testing.TB) *shard.Table {
	t.Helper()
	flat, err := shard.New("sales", table.Schema{
		{Name: "order_id", Type: table.Uint64},
		{Name: "qty", Type: table.Uint32},
		{Name: "product", Type: table.String},
	}, "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := flat.Insert([]any{uint64(i), uint32(i), "w"}); err != nil {
			t.Fatal(err)
		}
	}
	return flat
}

// TestServerRejectsMalformedFrames feeds hostile byte streams to a live
// server over TCP: every case must produce an error response or a closed
// connection — never a crash — and the server must keep answering
// well-formed requests afterwards.
func TestServerRejectsMalformedFrames(t *testing.T) {
	flat := fuzzStore(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(flat, Options{})
	go srv.Serve(l)
	defer srv.Close()
	addr := l.Addr().String()

	hostile := map[string][]byte{
		// Length prefix far beyond MaxFrame.
		"oversized length": {0xff, 0xff, 0xff, 0xff, 0x01},
		// Length prefix promising more payload than ever arrives.
		"truncated frame": {0x00, 0x00, 0x00, 0x40, 0x01, 0x02},
		// Empty payload (no opcode).
		"empty payload": {0x00, 0x00, 0x00, 0x00},
		// Unknown opcode.
		"unknown opcode": {0x00, 0x00, 0x00, 0x01, 0xee},
		// Valid opcode, garbage body (lookup with no arguments).
		"garbage body": {0x00, 0x00, 0x00, 0x01, wire.OpLookup},
		// Valid opcode + trailing garbage after a complete body.
		"trailing garbage": append([]byte{0x00, 0x00, 0x00, 0x02, wire.OpPing}, 0xcc),
		// Hostile interior count: insert row claiming 65535 values.
		"hostile row count": {0x00, 0x00, 0x00, 0x03, wire.OpInsert, 0xff, 0xff},
		// Hostile batch count.
		"hostile batch count": {0x00, 0x00, 0x00, 0x05, wire.OpInsertBatch, 0xff, 0xff, 0xff, 0xff},
		// Bad value tag inside a lookup (frame: op + token + column + tag
		// = 1+8+4+8+1 = 22 bytes).
		"bad value tag": append(append([]byte{0x00, 0x00, 0x00, 0x16, wire.OpLookup},
			0, 0, 0, 0, 0, 0, 0, 0, // token
			0, 0, 0, 8), append([]byte("order_id"), 0x7f)...),
		// A protocol-5 merge body: the dropped algorithm byte, then the
		// thread budget.  Read as the current body it leaves a trailing byte.
		"v5 merge body": {0x00, 0x00, 0x00, 0x06, wire.OpMerge, 0x01, 0x00, 0x00, 0x00, 0x02},
		// Raw noise that is not even a frame.
		"pure noise": {0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef},
	}

	for name, payload := range hostile {
		t.Run(name, func(t *testing.T) {
			nc, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			// The deadline doubles as the verdict for frames the server
			// legitimately keeps waiting on (a truncated frame's missing
			// payload): no response within it counts as "connection
			// parked", which is safe behavior.
			nc.SetDeadline(time.Now().Add(2 * time.Second))
			if _, err := nc.Write(payload); err != nil {
				t.Fatal(err)
			}
			// Either an error response arrives or the server closes the
			// connection; both are acceptable, hanging or crashing is not.
			br := bufio.NewReader(nc)
			resp, err := wire.ReadFrame(br)
			if err == nil {
				status := uint8(wire.StatusOK)
				if len(resp) > 0 {
					status = resp[0]
				}
				if status == wire.StatusOK {
					t.Fatalf("hostile frame accepted: % x", resp)
				}
			}
		})
	}

	// The server is still alive and serving correct requests.
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("server died after hostile input: %v", err)
	}
	defer nc.Close()
	var req wire.Buffer
	req.U8(wire.OpPing)
	bw := bufio.NewWriter(nc)
	if err := wire.WriteFrame(bw, req.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(bufio.NewReader(nc))
	if err != nil || len(resp) != 1 || resp[0] != wire.StatusOK {
		t.Fatalf("ping after hostile input: % x, %v", resp, err)
	}
	if n := srv.ActiveConns(); n == 0 {
		t.Fatal("session accounting lost the live connection")
	}
}

// FuzzHandle fuzzes the request decoder/dispatcher directly: any byte
// payload must produce a well-formed response (status byte first) and
// never panic.  Every opcode is seeded with a minimal valid body, and
// every one that carries a read epoch with epochs the server must refuse
// or serve exactly.
func FuzzHandle(f *testing.F) {
	flat := fuzzStore(f)
	srv := New(flat, Options{})

	var seed wire.Buffer
	seed.U8(wire.OpInsert)
	seed.Row([]any{uint64(1), uint32(2), "x"})
	f.Add(seed.Bytes())
	seed.Reset()
	seed.U8(wire.OpLookup)
	seed.U64(0)
	seed.String("order_id")
	seed.Value(uint64(1))
	f.Add(seed.Bytes())
	seed.Reset()
	seed.U8(wire.OpQuery)
	seed.U64(0)
	seed.Filters([]wire.Filter{{Column: "qty", Op: wire.OpFilterBetween, Value: uint32(0), Hi: uint32(5)}})
	seed.Strings([]string{"product"})
	f.Add(seed.Bytes())
	seed.Reset()
	seed.U8(wire.OpScan)
	seed.U64(0)
	seed.String("product")
	seed.U32(3)
	seed.U8(1)
	f.Add(seed.Bytes())
	for _, op := range []uint8{
		wire.OpPing, wire.OpSchema, wire.OpSnapshotEpoch, wire.OpValidRows,
		wire.OpUpdate, wire.OpDelete, wire.OpRow, wire.OpIsValid, wire.OpMerge,
		wire.OpSum, wire.OpMin, wire.OpMax, wire.OpCountEqual, wire.OpRange,
		wire.OpSnapshotRelease, wire.OpVisible, wire.OpInsertBatch,
	} {
		f.Add([]byte{op})
		f.Add(append([]byte{op}, 0, 0, 0, 0, 0, 0, 0, 0))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})

	// A read's epoch is outside input: seed every opcode that carries one
	// with epoch 1 once an update and a reclaiming merge have passed it,
	// the open epoch and the one past it, the Latest sentinel, and a
	// released snapshot's.
	flat.Clock().Capture()
	if _, err := flat.Update(0, map[string]any{"qty": uint32(99)}); err != nil {
		f.Fatal(err)
	}
	if rep, err := flat.RequestMerge(context.Background(), table.MergeOptions{}); err != nil || rep.RowsReclaimed == 0 {
		f.Fatalf("fuzz store merge reclaimed %d, %v", rep.RowsReclaimed, err)
	}
	released, err := srv.registerSnapshot()
	if err == nil {
		err = srv.releaseSnapshot(released)
	}
	if err != nil {
		f.Fatal(err)
	}
	now := flat.Clock().Now()
	for _, e := range []uint64{1, now, now + 1, math.MaxUint64, released} {
		for _, op := range []uint8{
			wire.OpSnapshotRelease, wire.OpLookup, wire.OpRange, wire.OpScan, wire.OpSum, wire.OpMin,
			wire.OpMax, wire.OpCountEqual, wire.OpQuery, wire.OpValidRows, wire.OpVisible,
		} {
			seed.Reset()
			seed.U8(op)
			seed.U64(e)
			switch op {
			case wire.OpLookup, wire.OpCountEqual:
				seed.String("order_id")
				seed.Value(uint64(1))
			case wire.OpRange:
				seed.String("order_id")
				seed.Value(uint64(1))
				seed.Value(uint64(5))
			case wire.OpScan:
				seed.String("product")
				seed.U32(3)
				seed.U8(1)
			case wire.OpSum, wire.OpMin, wire.OpMax:
				seed.String("qty")
			case wire.OpQuery:
				seed.Filters([]wire.Filter{{Column: "order_id", Op: wire.OpFilterEq, Value: uint64(1)}})
				seed.Strings([]string{"qty"})
			case wire.OpVisible:
				seed.U64(0)
			}
			f.Add(seed.Bytes())
		}
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		var out wire.Buffer
		srv.handle(payload, &out, nil)
		resp := out.Bytes()
		if len(resp) == 0 {
			t.Fatalf("empty response for payload % x", payload)
		}
		if resp[0] != wire.StatusOK {
			// Error responses must carry a decodable message.
			r := wire.NewReader(resp[1:])
			if _, err := r.String(); err != nil {
				t.Fatalf("error response without message: % x", resp)
			}
		}
	})
}
