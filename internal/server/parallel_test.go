package server_test

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"hyrise/client"
	"hyrise/internal/shard"
	"hyrise/internal/wire"
)

// TestPipelinedParallelOrder pipelines a long mixed request train on one
// raw connection — blocks of lookups with updates interleaved — and
// asserts the session contract under pipelining: every response arrives
// in request order with the value serial execution would have produced,
// a read pipelined after a write observes that write, and the server
// counts the pipelining it saw.
func TestPipelinedParallelOrder(t *testing.T) {
	flat, err := shard.New("sales", salesSchema(), "order_id", 1)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 200
	ids := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		id, err := flat.Insert([]any{uint64(i), uint32(i), fmt.Sprintf("p-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = uint64(id)
	}
	c, _, addr := startServer(t, flat)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)

	// The request train: rounds of reads, each closed by a qty update.
	// check[i] decodes and verifies response i.
	var check []func(r *wire.Reader) error
	send := func(fn func(b *wire.Buffer), chk func(r *wire.Reader) error) {
		var b wire.Buffer
		fn(&b)
		if err := wire.WriteFrame(bw, b.Bytes()); err != nil {
			t.Fatal(err)
		}
		check = append(check, chk)
	}
	expectIDs := func(want uint64) func(r *wire.Reader) error {
		return func(r *wire.Reader) error {
			got, err := r.RowIDs()
			if err != nil {
				return err
			}
			if len(got) != 1 || uint64(got[0]) != want {
				return fmt.Errorf("ids = %v, want [%d]", got, want)
			}
			return nil
		}
	}
	const rounds = 40
	for round := 0; round < rounds; round++ {
		// A block of reads.
		for i := 0; i < 8; i++ {
			key := uint64((round*8 + i) % rows)
			send(func(b *wire.Buffer) {
				b.U8(wire.OpLookup)
				b.U64(0)
				b.String("order_id")
				b.Value(key)
			}, expectIDs(ids[key]))
		}
		// Bump one row's qty.  The whole train is built before
		// any response is read, so the update's new row id must be
		// predicted: this connection is the only writer, and a flat table
		// hands out version ids sequentially, so round r's update creates
		// id rows+r.
		victim := round % rows
		want := uint32(10_000 + round)
		predicted := uint64(rows + round)
		send(func(b *wire.Buffer) {
			b.U8(wire.OpUpdate)
			b.U64(ids[victim])
			b.U16(1)
			b.String("qty")
			b.Value(want)
		}, func(r *wire.Reader) error {
			nid, err := r.U64()
			if err != nil {
				return err
			}
			if nid != predicted {
				return fmt.Errorf("update returned id %d, want %d", nid, predicted)
			}
			return nil
		})
		ids[victim] = predicted
		// ... and the very next pipelined read must observe it.  The
		// update's new row id is not known client-side yet, so read
		// through an aggregate: the qty sum includes the write the moment
		// it commits.  Victims so far are rows 0..round (rounds < rows,
		// so each round picks a fresh victim).
		rnd := round
		send(func(b *wire.Buffer) {
			b.U8(wire.OpSum)
			b.U64(0)
			b.String("qty")
		}, func(r *wire.Reader) error {
			sum, err := r.U64()
			if err != nil {
				return err
			}
			var expect uint64
			for i := 0; i < rows; i++ {
				if i <= rnd {
					expect += uint64(10_000 + i)
				} else {
					expect += uint64(i)
				}
			}
			if sum != expect {
				return fmt.Errorf("sum after update = %d, want %d", sum, expect)
			}
			return nil
		})
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	for i, chk := range check {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		r := wire.NewReader(payload)
		status, err := r.U8()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if status != wire.StatusOK {
			msg, _ := r.String()
			t.Fatalf("response %d: status 0x%02x %q", i, status, msg)
		}
		if err := chk(r); err != nil {
			t.Fatalf("response %d out of order or wrong: %v", i, err)
		}
	}

	// The train was seen as pipelined: the one measurement that would
	// justify an in-connection dispatcher moved.
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := client.MetricValue(samples, "hyrise_server_pipelined_requests_total"); !ok || v == 0 {
		t.Fatalf("hyrise_server_pipelined_requests_total = %v (ok=%v), want > 0", v, ok)
	}
}
