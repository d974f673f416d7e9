package client

import (
	"math"
	"net"
	"testing"

	"hyrise/internal/wire"
)

// stubReplica serves the few requests a routed latest read sends a
// follower: the hello (announcing role), the schema the sub-client's dial
// reads (one uint64 column k), a metrics snapshot of the given samples, and OpSum answered with
// sentinel.  It returns the stub's address.
func stubReplica(t *testing.T, role uint8, samples map[string]float64, sentinel uint64) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	serve := func(nc net.Conn) {
		defer nc.Close()
		for {
			req, err := wire.ReadFrame(nc)
			if err != nil || len(req) == 0 {
				return
			}
			var out wire.Buffer
			out.U8(wire.StatusOK)
			switch req[0] {
			case wire.OpHello:
				out.U32(wire.ProtocolVersion)
				out.U8(role)
			case wire.OpSchema:
				out.String("kv")
				out.String("k")
				out.U16(1)
				out.String("k")
				out.U8(uint8(Uint64))
			case wire.OpMetrics:
				out.U32(uint32(len(samples)))
				for name, v := range samples {
					out.String(name)
					out.U64(math.Float64bits(v))
				}
			case wire.OpSum:
				out.U64(sentinel)
			default:
				out.Reset()
				out.U8(wire.StatusErrBadRequest)
				out.String("stub: unexpected opcode")
			}
			if wire.WriteFrame(nc, out.Bytes()) != nil {
				return
			}
		}
	}
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go serve(nc)
		}
	}()
	return l.Addr().String()
}

// TestStalenessGate pins the latest-read routing rule: a follower serves a
// latest read only while its hyrise_replica_lag_epochs is within
// MaxStaleness, a follower that does not report the series is not routed
// to, and a server whose hello announced the primary role counts as lag 0.
func TestStalenessGate(t *testing.T) {
	const sentinel = 424242
	primary := testServer(t)
	pc, err := Dial(primary)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Insert([]any{uint64(1), uint32(3), "a"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		role    uint8
		samples map[string]float64
		want    uint64
	}{
		{"lagging follower", wire.RoleFollower, map[string]float64{"hyrise_replica_lag_epochs": 5, "hyrise_replica_applied_epoch": 1}, 3},
		{"current follower", wire.RoleFollower, map[string]float64{"hyrise_replica_lag_epochs": 0, "hyrise_replica_applied_epoch": 1}, sentinel},
		{"follower without the lag series", wire.RoleFollower, map[string]float64{"hyrise_epoch_current": 1}, 3},
		{"primary role", wire.RolePrimary, map[string]float64{"hyrise_epoch_current": 1}, sentinel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := DialOptions(primary, Options{
				Followers:    []string{stubReplica(t, tc.role, tc.samples, sentinel)},
				MaxStaleness: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got, err := c.Sum("qty"); err != nil || got != tc.want {
				t.Fatalf("Sum = %d, %v; want %d", got, err, tc.want)
			}
		})
	}
}
