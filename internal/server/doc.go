// Package server exposes every table operation — inserts, insert-only
// updates and deletes, typed reads, aggregates, conjunctive queries,
// snapshot capture and pinned-snapshot reads, statistics and merge
// control — over a length-prefixed binary protocol on TCP, turning the
// embedded column store into a standalone database server (cmd/hyrised).
// The matching Go client lives in hyrise/client; the encoding both sides
// share lives in hyrise/internal/wire.
//
// # Protocol
//
// Transport is any stream connection (the daemon uses TCP).  Every
// message is one frame: a 4-byte big-endian payload length followed by
// the payload, capped at wire.MaxFrame (16 MiB).  A request payload is
// one opcode byte plus the op-specific body; a response payload is one
// status byte — wire.StatusOK followed by the result body, or an error
// code followed by a message string.  Scalars are big-endian; strings
// are u32-length-prefixed; column values travel as a one-byte type tag
// (uint32 | uint64 | string) plus the scalar, mirroring the store's
// column types.  The full body layout of every opcode is documented on
// the wire.Op* constants.
//
// # Session model
//
// Each connection is an independent session served by one goroutine: read
// a request, execute it, write and flush its response.  Responses are
// therefore delivered in request order and a session's requests take
// effect in the order sent, so clients may pipeline — send N requests back
// to back, then read N responses (hyrise/client batches inserts this way)
// — and a read pipelined after a write on the same connection always
// observes that write.  Requests of one session never run concurrently
// with each other; concurrency comes from sessions running side by side,
// which is how hyrise/client's connection pool uses the server.
// hyrise_server_pipelined_requests_total counts requests that arrived
// with the next one already buffered behind them: it is the measurement
// that would justify executing a session's pipelined reads in parallel,
// and the committed benchmark baseline records zero on every workload.
//
// There is no per-session state beyond the connection itself — a read
// names its snapshot by its epoch (below), valid on every connection of
// the same server, which lets a pooled client spread pinned reads across
// its connections.  Concurrency across sessions is the store's own
// concurrency: handlers call straight into shard.Table methods, whose
// shard locks and epoch clock do the coordination.
//
// # Snapshots
//
// A snapshot is its epoch.  Read requests carry an epoch field: zero reads
// latest, and any other epoch E reads exactly the versions with
// begin <= E < end no matter how many inserts, updates, deletes or merges
// commit in between — or fails with wire.StatusErrBadSnapshot.  It fails
// when E is still open (Now(), which mutations stamp) or later on a
// primary, past the applied epoch on a follower (this also refuses
// epoch.Latest), and when garbage
// collection has passed E on a partition that holds no pin for it
// (table.ErrReclaimed).
//
// OpSnapshotEpoch captures a Table.Snapshot (one atomic epoch fetch-add,
// consistent across every shard), pins it in the server's snapshot
// registry, and answers the epoch.  Reads at a registered epoch read
// through its pinned view, so garbage-collecting merges keep every version
// it can see until OpSnapshotRelease drops the registration; a release of
// an epoch with no registration fails with wire.StatusErrBadSnapshot.
// After the release, reads at the epoch keep answering exactly until a
// reclaiming merge passes it.
//
// Registered snapshots are not free: each pinned epoch holds back garbage
// collection.  The registry is therefore bounded — Options.MaxSnapshots,
// default DefaultMaxSnapshots (1024) — and OpSnapshotEpoch past the cap
// fails with wire.StatusErrTooManySnapshots until a snapshot is released.
// The bound exists precisely because a client capturing in a loop, or
// crashing without releasing, would otherwise grow the registry and pin
// dead versions forever.  Server.ReleaseAllSnapshots drops every pin
// (cmd/hyrised uses it after the shutdown drain so the final compacting
// merge is not pinned by stale snapshots).
//
// # Reads at the server boundary
//
// OpLookup, OpRange, OpCountEqual, OpScan, OpSum, OpMin, OpMax,
// OpValidRows and OpQuery each decode into one table.Plan run by
// shard.Read, the store's one read fan-out; a query's filters and
// projection map onto column positions once (table.Schema.Plan), and the
// planner account the partitions return, summed, feeds the
// hyrise_query_* counters.  A plan with an equality on the key column
// reads one partition per shard window — the one the key hashes to
// there, a single partition unless a reshard is in flight or its sealed
// window still holds rows; every other request reads every partition.  Each partition reads under one hold of its read lock
// at one epoch — with epoch 0 over several partitions, one snapshot
// pinned for the request.  hyrise_read_partitions_total counts the
// partitions read.  OpScan with rows is the same plan projecting every
// column beside the scanned one, so the full rows are the versions the
// scan matched and nothing is read after the lock hold.
//
// # Protocol version
//
// There is one protocol generation, wire.ProtocolVersion, and no
// negotiation.  OpHello carries the client's version (u32); a server
// built from the same protocol answers with its own version plus its
// replication role (wire.RolePrimary or wire.RoleFollower), and any other
// version is refused with wire.StatusErrBadRequest, which fails the
// client's Dial.  The client likewise refuses a server that answers with
// a different number.  The check is input validation: without it a
// mismatched pair would misparse each other's frames at the first layout
// they disagree on.  The exchange is stateless — the server answers every
// hello identically — and an unknown opcode fails with
// wire.StatusErrBadRequest without desynchronizing the stream.  A
// follower's OpSubscribe carries the same version and is refused the same
// way, so a follower of another build fails at the handshake, not inside
// the snapshot image.
//
// # Merge
//
// OpMerge runs the store's one merge — the optimized, garbage-collecting
// merge of every partition — on demand.  Its body is only the thread
// budget (u32, 0 = all of the server's threads); the server clamps it to
// its own GOMAXPROCS, because a merge splits each column into budget-many
// pieces and a budget taken from the wire is otherwise unbounded.
//
// # Secondary indexes
//
// OpCreateIndex builds a merge-maintained group-key index on one column
// (body: column name; empty response).  It changes store structure, not
// data, and is idempotent, so unlike the four write opcodes it is allowed
// on read-only followers: a follower may index its local copy for the
// selective reads routed to it.  Indexes are in-memory only — not in the
// persist format or the replication stream — and must be re-created after
// a restart or re-bootstrap.  Their statistics are the
// hyrise_index_*{column} series (below).
//
// # Replication
//
// A server whose store has an operation log attached (Options.OpLog) is
// a replication primary.  OpSubscribe turns the requesting connection
// into a one-way replication stream; it must be the only request on its
// connection.  The request body is the protocol version (u32), a mode
// byte and a u64 LSN:
//
//   - wire.SubSnapshot bootstraps a follower: the server cuts the log
//     position, responds StatusOK + mode + the cut LSN, streams a
//     persist-format snapshot image as FrameSnapChunk frames terminated
//     by FrameSnapEnd, and then streams ops from the cut.  Writers,
//     merges and GC keep running and cannot fail the image; each of its
//     partitions is exact at its own instant after the cut, and replaying
//     the ops from the cut (idempotent) makes the store exact.  A
//     FrameError in place of a chunk fails the follower's bootstrap with
//     the server's reason (replica.ErrPrimaryAborted).
//   - wire.SubTail resumes from the given LSN.  If the log no longer
//     covers it (trimmed past the follower's position) the server
//     refuses with wire.StatusErrBadSnapshot before any stream bytes, and
//     the follower must re-bootstrap; a tail is never silently degraded
//     to a snapshot, because the follower cannot absorb a second image.
//
// After the OK response the connection carries frames of ops
// (FrameOps: a count plus oplog-encoded records, each stamped with the
// epoch it committed under and its LSN) interleaved with heartbeats
// (FrameHeartbeat: safe epoch, primary epoch, next LSN).  A heartbeat is
// sent only when the subscriber is exactly caught up, so its safe epoch
// is exact: a follower that has applied every op below the heartbeat's
// LSN serves reads at the safe epoch that are bit-identical to the
// primary's at the same epoch.  Stream-side failures after the OK travel
// as FrameError frames.  internal/replica implements the follower side;
// oplog ops replayed through Table.ApplyInsert/ApplyUpdate/
// ApplyInvalidate reproduce row ids, epochs and values exactly.
//
// A server created with Options.Replica set is a read-only follower:
// mutating opcodes fail with wire.StatusErrReadOnly and OpSnapshotEpoch
// pins the applied epoch (the latest its store is exact at).  A follower
// answers a read at a primary snapshot's epoch E with no pin of its own:
// exactly, or with wire.StatusErrBadSnapshot when it has not applied E or
// its own merges have garbage-collected past it — and the pooled client
// then falls back to the primary, which holds the pin.  A follower whose
// applier stopped for good (its Replica's Err is set) reports it: /healthz
// answers 503 with the error and hyrise_replica_stopped is 1, so routing
// sends latest reads to the primary.
//
// # Observability
//
// Every server carries a metric registry (hyrise/internal/metrics):
// per-opcode request/error counters and latency histograms bound at
// construction (no allocation or map lookup on the request path), plus
// gauges over the store, epoch clock, GC state, op log, replica state and
// index routing, and the planner counters of the queries it served.
// Server.Registry exposes it; Server.ObsHandler serves it over HTTP as
// /metrics (Prometheus text exposition) together with /healthz
// (readiness: a primary is ready unless draining, a follower once it has
// a primary heartbeat and until its applier stops; min_epoch=N tightens
// either to "epoch >= N") and
// the /debug/pprof/ profiles.  Options.SlowOpThreshold makes any op
// slower than the threshold emit one structured slog line with the
// opcode, duration, rows touched, snapshot epoch, status and remote
// address.
//
// OpMetrics exposes the same registry over the data protocol; it is the
// one channel for every number a client reads: per-op counts,
// replication, shard topology, uptime, store shape per partition
// (hyrise_partition_*{partition}) and index statistics per column
// (hyrise_index_*{column}).  Role and protocol come from OpHello.  The request body is empty; the response
// is u32 n followed by n samples, each a string (the full series name
// with labels rendered in, e.g. `hyrise_server_requests_total{op="lookup"}`;
// histogram families contribute their _count and _sum, with durations in
// seconds) and the value as float64 bits in a u64.  Followers answer
// locally — their lag gauges are exactly what a client-side topology
// check wants.
//
// # Online resharding
//
// OpReshard changes the store's active shard count online (body:
// u32 shard count; see hyrise/internal/shard for the migration
// protocol).  The op blocks until the migration completes and answers
// with the report: from u32, to u32, rows migrated u64, wall and cutover
// nanoseconds u64, shard-map version u64 and cutover epoch u64.  Reads
// and writes on every other connection keep flowing throughout — the op
// is a barrier only on its own connection.  It fails with
// wire.StatusErrReadOnly on a follower (followers converge by replaying
// the reshard ops from the primary's op log instead).
//
// # Shutdown
//
// Server.Shutdown stops accepting connections, lets every in-flight
// request finish and its response flush, closes idle connections, and
// returns when the last session drains (or the context expires, at
// which point remaining connections are closed forcibly).  Sessions
// notice the drain after their current request and close; pipelined
// requests that were still queued behind it are dropped with the
// connection, which clients observe as io.EOF and may retry elsewhere.
package server
