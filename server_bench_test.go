package hyrise_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"hyrise"
	"hyrise/client"
)

// serverClientCounts is the concurrency axis of the server benchmarks:
// the CI smoke emits these as the BENCH_server.json perf trajectory.
var serverClientCounts = []int{1, 4, 8}

// benchServer serves a preloaded 4-shard store on loopback TCP and
// returns its address.
func benchServer(b *testing.B, preload int) string {
	b.Helper()
	addr, _ := benchServerOpts(b, preload, hyrise.ServerOptions{})
	return addr
}

// benchServerOpts is benchServer with explicit server options, also
// returning the server (the observability benchmarks scrape it).
func benchServerOpts(b *testing.B, preload int, opts hyrise.ServerOptions) (string, *hyrise.DBServer) {
	b.Helper()
	st, err := hyrise.NewShardedTable("bench", hyrise.Schema{
		{Name: "k", Type: hyrise.Uint64},
		{Name: "v", Type: hyrise.Uint64},
	}, "k", 4)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]any, preload)
	for i := range rows {
		rows[i] = []any{uint64(i), uint64(i)}
	}
	if _, err := st.InsertRows(rows); err != nil {
		b.Fatal(err)
	}
	if _, err := st.RequestMerge(b.Context(), hyrise.MergeOptions{}); err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := hyrise.Serve(l, st, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return l.Addr().String(), srv
}

// benchClients dials n independent clients (each with its own pool).
func benchClients(b *testing.B, addr string, n int) []*client.Client {
	b.Helper()
	cs := make([]*client.Client, n)
	for i := range cs {
		c, err := client.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		cs[i] = c
	}
	return cs
}

// runConcurrent splits b.N ops across the clients and waits.
func runConcurrent(b *testing.B, cs []*client.Client, op func(c *client.Client, i int) error) {
	var wg sync.WaitGroup
	per := b.N / len(cs)
	var failed sync.Once
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			lo, hi := ci*per, (ci+1)*per
			if ci == len(cs)-1 {
				hi = b.N
			}
			for i := lo; i < hi; i++ {
				if err := op(c, i); err != nil {
					failed.Do(func() { b.Error(err) })
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
}

// BenchmarkServerLookup measures point-read throughput over the wire as
// concurrent clients scale.
func BenchmarkServerLookup(b *testing.B) {
	const preload = 100_000
	for _, clients := range serverClientCounts {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			addr := benchServer(b, preload)
			cs := benchClients(b, addr, clients)
			b.ResetTimer()
			runConcurrent(b, cs, func(c *client.Client, i int) error {
				rows, err := c.Lookup("k", uint64(i%preload))
				if err == nil && len(rows) != 1 {
					err = fmt.Errorf("lookup found %d rows", len(rows))
				}
				return err
			})
		})
	}
}

// BenchmarkServerMixed measures a read-heavy mixed workload (80% lookup,
// 10% insert, 10% snapshot-pinned aggregate) across concurrent clients —
// the "real concurrent client traffic" shape the server exists for.
func BenchmarkServerMixed(b *testing.B) {
	const preload = 50_000
	for _, clients := range serverClientCounts {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			addr := benchServer(b, preload)
			cs := benchClients(b, addr, clients)
			snaps := make([]client.Snap, len(cs))
			for i, c := range cs {
				s, err := c.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				snaps[i] = s
			}
			next := make([]int, len(cs))
			for i := range next {
				next[i] = preload + i*1_000_000_000
			}
			idx := map[*client.Client]int{}
			for i, c := range cs {
				idx[c] = i
			}
			b.ResetTimer()
			runConcurrent(b, cs, func(c *client.Client, i int) error {
				ci := idx[c]
				switch i % 10 {
				case 0:
					next[ci]++
					_, err := c.Insert([]any{uint64(next[ci]), uint64(i)})
					return err
				case 1:
					_, err := c.ValidRowsAt(snaps[ci])
					return err
				default:
					_, err := c.Lookup("k", uint64(i%preload))
					return err
				}
			})
		})
	}
}

// BenchmarkServerInsertBatch measures pipelined bulk-load throughput
// (rows/op scales with the batch, so compare ns/op per 1k rows).
func BenchmarkServerInsertBatch(b *testing.B) {
	const batch = 1000
	addr := benchServer(b, 0)
	cs := benchClients(b, addr, 1)
	rows := make([][]any, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rows[j] = []any{uint64(i*batch + j), uint64(j)}
		}
		if _, err := cs[0].InsertBatch(rows); err != nil {
			b.Fatal(err)
		}
	}
}
