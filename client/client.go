// Package client is the Go client for the hyrise network server
// (internal/server, cmd/hyrised): a connection-pooled, pipelining client
// exposing every table operation — inserts, insert-only updates and
// deletes, typed reads, aggregates, conjunctive queries, snapshot capture
// with pinned-snapshot reads, statistics and merge control — over the
// length-prefixed binary protocol of hyrise/internal/wire.
//
//	c, err := client.Dial("localhost:4860")
//	defer c.Close()
//	id, _ := c.Insert([]any{uint64(1), uint32(3), "widget"})
//	snap, _ := c.Snapshot()           // an epoch, pinned server-side
//	rows, _ := c.LookupAt(snap, "order_id", uint64(1))
//	sum, _ := c.SumAt(snap, "qty")    // consistent with the lookup above
//	c.Release(snap)
//
// A Client is safe for concurrent use: every request checks a connection
// out of the pool (dialing lazily up to Options.Conns) and returns it
// after the response.  A snapshot is its epoch, pinned server-side, so a
// snapshot captured through one pooled connection is valid on all of them
// — and on other Clients of the same server.  InsertBatch pipelines large
// batches as multiple in-flight frames on one connection.
//
// Server-reported failures unwrap to this package's typed errors
// (ErrRowRange, ErrRowInvalid, ErrNoColumn, ErrArity, ErrMergeBusy,
// ErrBadSnapshot, ErrBadRequest, ErrColumnType, ErrServer) via errors.Is.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hyrise/internal/wire"
)

// Typed errors rehydrated from server status codes.  ErrServer is the
// catch-all for failures without a more specific code.
var (
	ErrServer      = errors.New("hyrise server error")
	ErrRowRange    = errors.New("hyrise: row id out of range")
	ErrRowInvalid  = errors.New("hyrise: row already invalidated")
	ErrNoColumn    = errors.New("hyrise: no such column")
	ErrArity       = errors.New("hyrise: value count does not match schema")
	ErrMergeBusy   = errors.New("hyrise: merge already in progress")
	ErrBadSnapshot = errors.New("hyrise: snapshot epoch not servable") // see Snap and Release
	ErrBadRequest  = errors.New("hyrise: malformed request")
	ErrColumnType  = errors.New("hyrise: value does not fit column type")
	// ErrTooManySnapshots: the server's snapshot registry is at capacity
	// (ServerOptions.MaxSnapshots); Release a snapshot before capturing
	// another.
	ErrTooManySnapshots = errors.New("hyrise: too many registered snapshots")
	// ErrReadOnly: the server is a replication follower; route writes to
	// the primary.
	ErrReadOnly     = errors.New("hyrise: read-only follower")
	ErrClientClosed = errors.New("hyrise: client closed")
)

func errFromStatus(code uint8, msg string) error {
	var sentinel error
	switch code {
	case wire.StatusErrRowRange:
		sentinel = ErrRowRange
	case wire.StatusErrRowInvalid:
		sentinel = ErrRowInvalid
	case wire.StatusErrNoColumn:
		sentinel = ErrNoColumn
	case wire.StatusErrArity:
		sentinel = ErrArity
	case wire.StatusErrMergeBusy:
		sentinel = ErrMergeBusy
	case wire.StatusErrBadSnapshot:
		sentinel = ErrBadSnapshot
	case wire.StatusErrTooManySnapshots:
		sentinel = ErrTooManySnapshots
	case wire.StatusErrBadRequest:
		sentinel = ErrBadRequest
	case wire.StatusErrColumnType:
		sentinel = ErrColumnType
	case wire.StatusErrReadOnly:
		sentinel = ErrReadOnly
	default:
		sentinel = ErrServer
	}
	return fmt.Errorf("%w: %s", sentinel, msg)
}

// Type mirrors the server's column types (same numbering as the wire
// tags and the library's table.Type).
type Type uint8

// Column types.
const (
	Uint32 Type = 0
	Uint64 Type = 1
	String Type = 2
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Uint32:
		return "uint32"
	case Uint64:
		return "uint64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column is one attribute of the served table.
type Column struct {
	Name string
	Type Type
}

// Snap is a snapshot: its epoch.  Latest (zero) reads current versions;
// any other epoch reads exactly the versions visible at it, or fails with
// ErrBadSnapshot when the server cannot serve it exactly.  A Snap from
// Client.Snapshot is pinned on the server until Released.
type Snap uint64

// Latest is the always-valid snapshot for reading current versions.
const Latest Snap = 0

// Options tunes Dial.
type Options struct {
	// Conns caps the connection pool (default 4).  Connections are
	// dialed lazily as concurrent requests demand them.
	Conns int
	// DialTimeout bounds each TCP dial (default 5s).
	DialTimeout time.Duration
	// Followers lists read-replica addresses.  When set, eligible reads
	// are routed to followers: a snapshot read goes to a follower as is,
	// which answers it exactly or refuses it (an epoch it has not applied
	// or has garbage-collected past); latest reads go to any follower
	// lagging at most MaxStaleness epochs whose applier has not stopped.
	// Every follower error falls back to the primary and benches the
	// follower for a second: routing changes only who serves a result.
	Followers []string
	// MaxStaleness bounds, in epochs, how far behind the primary a
	// follower may be and still serve LATEST reads (snapshot reads are
	// exact regardless).  0 routes latest reads only to fully-caught-up
	// followers.
	MaxStaleness uint64
}

// statsTTL bounds how long a follower's lag measurement is reused before
// it is measured again.
const statsTTL = 100 * time.Millisecond

func (o *Options) setDefaults() {
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
}

// Client is a pooled connection to one hyrise server.  Safe for
// concurrent use.
type Client struct {
	addr string
	opts Options

	// Immutable after Dial.
	name      string
	keyColumn string
	schema    []Column
	colIdx    map[string]int
	role      Role // announced by the hello exchange

	sem       chan struct{} // counts live connections (pool capacity)
	free      chan *poolConn
	closed    chan struct{}
	closeOnce sync.Once

	// Follower routing state (empty without Options.Followers).
	followers []*follower
	rr        uint64 // round-robin cursor, accessed atomically
}

type poolConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// Dial connects to a hyrise server with default options and fetches the
// served table's schema.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects with explicit options.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts.setDefaults()
	c := &Client{
		addr:   addr,
		opts:   opts,
		sem:    make(chan struct{}, opts.Conns),
		free:   make(chan *poolConn, opts.Conns),
		closed: make(chan struct{}),
	}
	// Dial eagerly once: verifies the server speaks this client's protocol
	// and caches the schema every later request needs for value coercion.
	if err := c.hello(); err != nil {
		c.Close()
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	var req wire.Buffer
	req.U8(wire.OpSchema)
	r, err := c.do(req.Bytes())
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if err := c.readSchema(r); err != nil {
		c.Close()
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	for _, faddr := range opts.Followers {
		c.followers = append(c.followers, &follower{parent: c, addr: faddr})
	}
	return c, nil
}

// hello checks that the server speaks exactly this client's protocol and
// records its role.  A server of any other version — whether it refuses
// the hello itself or answers with its own number — fails the dial with
// ErrBadRequest; there is no fallback to an older protocol.
func (c *Client) hello() error {
	var req wire.Buffer
	req.U8(wire.OpHello)
	req.U32(wire.ProtocolVersion)
	r, err := c.do(req.Bytes())
	if err != nil {
		return err
	}
	ver, err := r.U32()
	if err != nil {
		return err
	}
	role, err := r.U8()
	if err != nil {
		return err
	}
	if ver != wire.ProtocolVersion {
		return fmt.Errorf("%w: server speaks protocol version %d, this client %d",
			ErrBadRequest, ver, wire.ProtocolVersion)
	}
	c.role = Role(role)
	return nil
}

// Role returns the server's announced role.
func (c *Client) Role() Role { return c.role }

func (c *Client) readSchema(r *wire.Reader) error {
	var err error
	if c.name, err = r.String(); err != nil {
		return err
	}
	if c.keyColumn, err = r.String(); err != nil {
		return err
	}
	n, err := r.U16()
	if err != nil {
		return err
	}
	c.schema = make([]Column, n)
	c.colIdx = make(map[string]int, n)
	for i := range c.schema {
		if c.schema[i].Name, err = r.String(); err != nil {
			return err
		}
		t, err := r.U8()
		if err != nil {
			return err
		}
		c.schema[i].Type = Type(t)
		c.colIdx[c.schema[i].Name] = i
	}
	return nil
}

// Name returns the served table's name.
func (c *Client) Name() string { return c.name }

// KeyColumn returns the hash-partitioning column.
func (c *Client) KeyColumn() string { return c.keyColumn }

// Schema returns the served table's columns.
func (c *Client) Schema() []Column {
	out := make([]Column, len(c.schema))
	copy(out, c.schema)
	return out
}

// Close tears down every pooled connection.  In-flight requests on other
// goroutines fail with connection errors; their connections are closed as
// they return to the pool (see release), so no socket outlives the close.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	c.drainFree()
	for _, f := range c.followers {
		f.close()
	}
	return nil
}

// drainFree closes every connection currently idle in the pool.
func (c *Client) drainFree() {
	for {
		select {
		case pc := <-c.free:
			pc.nc.Close()
		default:
			return
		}
	}
}

// acquire checks a connection out of the pool, dialing a new one when
// the pool has spare capacity and no idle connection.
func (c *Client) acquire() (*poolConn, error) {
	select {
	case <-c.closed:
		return nil, ErrClientClosed
	default:
	}
	select {
	case pc := <-c.free:
		return pc, nil
	case c.sem <- struct{}{}:
		nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
		if err != nil {
			<-c.sem
			return nil, err
		}
		return &poolConn{
			nc: nc,
			br: bufio.NewReaderSize(nc, 64<<10),
			bw: bufio.NewWriterSize(nc, 64<<10),
		}, nil
	case <-c.closed:
		return nil, ErrClientClosed
	}
}

// release returns a healthy connection to the pool.  The post-enqueue
// closed re-check makes release safe against a concurrent Close: either
// the enqueue happened before Close closed c.closed — then Close's drain
// (which runs after) sees the connection — or this release observes the
// channel closed and drains the pool itself.  Without the re-check, a
// connection enqueued just after Close's drain loop exited would leak its
// socket.
func (c *Client) release(pc *poolConn) {
	select {
	case <-c.closed:
		c.discard(pc)
		return
	default:
	}
	select {
	case c.free <- pc:
	default:
		c.discard(pc)
		return
	}
	select {
	case <-c.closed:
		c.drainFree()
	default:
	}
}

// discard drops a connection (after an I/O error, or on overflow).
func (c *Client) discard(pc *poolConn) {
	pc.nc.Close()
	select {
	case <-c.sem:
	default:
	}
}

// do sends one request and decodes the response status, returning a
// reader positioned at the result body.
func (c *Client) do(req []byte) (*wire.Reader, error) {
	pc, err := c.acquire()
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(pc.bw, req); err != nil {
		c.discard(pc)
		return nil, err
	}
	if err := pc.bw.Flush(); err != nil {
		c.discard(pc)
		return nil, err
	}
	resp, err := wire.ReadFrame(pc.br)
	if err != nil {
		c.discard(pc)
		return nil, err
	}
	c.release(pc)
	return decodeStatus(resp)
}

func decodeStatus(resp []byte) (*wire.Reader, error) {
	r := wire.NewReader(resp)
	status, err := r.U8()
	if err != nil {
		return nil, fmt.Errorf("%w: empty response", ErrBadRequest)
	}
	if status != wire.StatusOK {
		msg, _ := r.String()
		return nil, errFromStatus(status, msg)
	}
	return r, nil
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	var req wire.Buffer
	req.U8(wire.OpPing)
	_, err := c.do(req.Bytes())
	return err
}

// coerce converts convenient Go literals to the column's wire type: the
// exact type passes through, untyped-int-friendly int/uint variants
// convert with range checks, everything else fails with ErrColumnType.
func (c *Client) coerce(col string, v any) (any, error) {
	i, ok := c.colIdx[col]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	return coerceType(c.schema[i].Type, col, v)
}

func coerceType(t Type, col string, v any) (any, error) {
	asU64 := func() (uint64, bool) {
		switch x := v.(type) {
		case int:
			if x >= 0 {
				return uint64(x), true
			}
		case int64:
			if x >= 0 {
				return uint64(x), true
			}
		case uint:
			return uint64(x), true
		case uint32:
			return uint64(x), true
		case uint64:
			return x, true
		}
		return 0, false
	}
	switch t {
	case Uint32:
		if x, ok := v.(uint32); ok {
			return x, nil
		}
		if u, ok := asU64(); ok && u <= 1<<32-1 {
			return uint32(u), nil
		}
	case Uint64:
		if x, ok := v.(uint64); ok {
			return x, nil
		}
		if u, ok := asU64(); ok {
			return u, nil
		}
	case String:
		if x, ok := v.(string); ok {
			return x, nil
		}
	}
	return nil, fmt.Errorf("%w: %T for %v column %q", ErrColumnType, v, t, col)
}

// coerceRow coerces a full row against the schema (arity mismatches are
// left for the server to reject with ErrArity).
func (c *Client) coerceRow(values []any) ([]any, error) {
	if len(values) != len(c.schema) {
		return nil, fmt.Errorf("%w: got %d values want %d", ErrArity, len(values), len(c.schema))
	}
	out := make([]any, len(values))
	for i, v := range values {
		cv, err := coerceType(c.schema[i].Type, c.schema[i].Name, v)
		if err != nil {
			return nil, err
		}
		out[i] = cv
	}
	return out, nil
}

// Insert appends one row and returns its row id.
func (c *Client) Insert(values []any) (int, error) {
	row, err := c.coerceRow(values)
	if err != nil {
		return 0, err
	}
	var req wire.Buffer
	req.U8(wire.OpInsert)
	if err := req.Row(row); err != nil {
		return 0, err
	}
	r, err := c.do(req.Bytes())
	if err != nil {
		return 0, err
	}
	id, err := r.U64()
	return int(id), err
}

// batchChunk bounds the rows encoded into one InsertBatch frame; larger
// batches pipeline as multiple in-flight frames on one connection.
const batchChunk = 512

// InsertBatch appends rows and returns their ids in input order.  The
// batch is split into chunks of up to 512 rows, all pipelined on one
// connection: chunk frames stream out while a reader goroutine drains
// the responses concurrently, so a large batch pays one round trip, not
// one per chunk — and arbitrarily large batches cannot deadlock on full
// TCP buffers.  Chunks are atomic server-side (a bad row rejects its
// whole chunk); chunks before and after a failed one may still land.
func (c *Client) InsertBatch(rows [][]any) ([]int, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	coerced := make([][]any, len(rows))
	for i, row := range rows {
		cr, err := c.coerceRow(row)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		coerced[i] = cr
	}
	frames := make([][]byte, 0, (len(coerced)+batchChunk-1)/batchChunk)
	for at := 0; at < len(coerced); at += batchChunk {
		chunk := coerced[at:min(at+batchChunk, len(coerced))]
		var req wire.Buffer
		req.U8(wire.OpInsertBatch)
		req.U32(uint32(len(chunk)))
		for _, row := range chunk {
			if err := req.Row(row); err != nil {
				return nil, err
			}
		}
		frames = append(frames, req.Bytes())
	}

	pc, err := c.acquire()
	if err != nil {
		return nil, err
	}
	var (
		ids      []int
		chunkErr error // first server-reported chunk failure (session intact)
		readErr  error // transport/decode failure (session poisoned)
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range frames {
			resp, err := wire.ReadFrame(pc.br)
			if err != nil {
				readErr = err
				return
			}
			r, err := decodeStatus(resp)
			if err != nil {
				if chunkErr == nil {
					chunkErr = err
				}
				continue // keep draining so the connection stays in sync
			}
			chunkIDs, err := r.RowIDs()
			if err != nil {
				readErr = err
				return
			}
			ids = append(ids, chunkIDs...)
		}
	}()
	var writeErr error
	for _, f := range frames {
		if writeErr = wire.WriteFrame(pc.bw, f); writeErr != nil {
			break
		}
	}
	if writeErr == nil {
		writeErr = pc.bw.Flush()
	}
	if writeErr != nil {
		pc.nc.Close() // unblock the reader
	}
	<-done
	if writeErr != nil || readErr != nil {
		c.discard(pc)
		if writeErr != nil {
			return nil, writeErr
		}
		return nil, readErr
	}
	if chunkErr != nil {
		c.release(pc)
		return nil, chunkErr
	}
	c.release(pc)
	return ids, nil
}

// Update appends a new version of the row with the changed columns and
// invalidates the old version, returning the new row id.
func (c *Client) Update(row int, changes map[string]any) (int, error) {
	var req wire.Buffer
	req.U8(wire.OpUpdate)
	req.U64(uint64(row))
	req.U16(uint16(len(changes)))
	for col, v := range changes {
		cv, err := c.coerce(col, v)
		if err != nil {
			return 0, err
		}
		req.String(col)
		if err := req.Value(cv); err != nil {
			return 0, err
		}
	}
	r, err := c.do(req.Bytes())
	if err != nil {
		return 0, err
	}
	id, err := r.U64()
	return int(id), err
}

// Delete invalidates the row.
func (c *Client) Delete(row int) error {
	var req wire.Buffer
	req.U8(wire.OpDelete)
	req.U64(uint64(row))
	_, err := c.do(req.Bytes())
	return err
}

// Row materializes all column values of a row (valid or not).
func (c *Client) Row(row int) ([]any, error) {
	var req wire.Buffer
	req.U8(wire.OpRow)
	req.U64(uint64(row))
	r, err := c.do(req.Bytes())
	if err != nil {
		return nil, err
	}
	return r.Row()
}

// IsValid reports whether the row is the current version.
func (c *Client) IsValid(row int) (bool, error) {
	var req wire.Buffer
	req.U8(wire.OpIsValid)
	req.U64(uint64(row))
	r, err := c.do(req.Bytes())
	if err != nil {
		return false, err
	}
	b, err := r.U8()
	return b != 0, err
}

// Snapshot captures a consistent read view server-side (one atomic epoch
// capture, consistent across all shards), pins it there, and returns it:
// the Snap is the captured epoch.  Reads at it are frozen at that epoch no
// matter how many writes and merges commit afterwards — on any pooled
// connection, on other Clients of the same server, and on its followers
// once they have applied it.  The server's registry is bounded: past its
// capacity Snapshot fails with ErrTooManySnapshots until a snapshot is
// Released.
func (c *Client) Snapshot() (Snap, error) {
	var req wire.Buffer
	req.U8(wire.OpSnapshotEpoch)
	r, err := c.do(req.Bytes())
	if err != nil {
		return 0, err
	}
	e, err := r.U64()
	return Snap(e), err
}

// Release drops a snapshot's pin from the server's registry.  Do call it:
// a pinned snapshot keeps every version it can see from garbage
// collection, and the registry itself is bounded, so unreleased snapshots
// eventually make Snapshot fail with ErrTooManySnapshots.  Reads at a
// released snapshot keep answering exactly until a reclaiming merge passes
// its epoch; from then on they fail with ErrBadSnapshot.  Releasing a
// snapshot that is not pinned fails with ErrBadSnapshot.
func (c *Client) Release(s Snap) error {
	var req wire.Buffer
	req.U8(wire.OpSnapshotRelease)
	req.U64(uint64(s))
	_, err := c.do(req.Bytes())
	return err
}

// readReq assembles the common (op, epoch, column) request prefix.
func readReq(op uint8, s Snap, col string) wire.Buffer {
	var req wire.Buffer
	req.U8(op)
	req.U64(uint64(s))
	req.String(col)
	return req
}

// Lookup returns the row ids of current rows whose value equals v.
func (c *Client) Lookup(col string, v any) ([]int, error) { return c.LookupAt(Latest, col, v) }

// LookupAt is Lookup frozen at the snapshot.
func (c *Client) LookupAt(s Snap, col string, v any) ([]int, error) {
	cv, err := c.coerce(col, v)
	if err != nil {
		return nil, err
	}
	req := readReq(wire.OpLookup, s, col)
	if err := req.Value(cv); err != nil {
		return nil, err
	}
	r, err := c.doRead(req.Bytes(), s)
	if err != nil {
		return nil, err
	}
	return r.RowIDs()
}

// Range returns the row ids of current rows with value in [lo, hi].
func (c *Client) Range(col string, lo, hi any) ([]int, error) {
	return c.RangeAt(Latest, col, lo, hi)
}

// RangeAt is Range frozen at the snapshot.
func (c *Client) RangeAt(s Snap, col string, lo, hi any) ([]int, error) {
	clo, err := c.coerce(col, lo)
	if err != nil {
		return nil, err
	}
	chi, err := c.coerce(col, hi)
	if err != nil {
		return nil, err
	}
	req := readReq(wire.OpRange, s, col)
	if err := req.Value(clo); err != nil {
		return nil, err
	}
	if err := req.Value(chi); err != nil {
		return nil, err
	}
	r, err := c.doRead(req.Bytes(), s)
	if err != nil {
		return nil, err
	}
	return r.RowIDs()
}

// Scan streams up to limit current rows of the column (limit <= 0 means
// all), returning row ids and the column's values.
func (c *Client) Scan(col string, limit int) ([]int, []any, error) {
	return c.ScanAt(Latest, col, limit)
}

// ScanAt is Scan frozen at the snapshot.
func (c *Client) ScanAt(s Snap, col string, limit int) ([]int, []any, error) {
	ids, values, _, err := c.scan(s, col, limit, false)
	return ids, values, err
}

// ScanRows is Scan plus full-row materialization: it additionally
// returns every matched row's values across all columns.  The server
// reads the scanned column and every other column in one read, so the
// rows are the versions the scan matched.
func (c *Client) ScanRows(col string, limit int) ([]int, [][]any, error) {
	ids, _, rows, err := c.scan(Latest, col, limit, true)
	return ids, rows, err
}

// ScanRowsAt is ScanRows frozen at the snapshot.
func (c *Client) ScanRowsAt(s Snap, col string, limit int) ([]int, [][]any, error) {
	ids, _, rows, err := c.scan(s, col, limit, true)
	return ids, rows, err
}

func (c *Client) scan(s Snap, col string, limit int, withRows bool) ([]int, []any, [][]any, error) {
	req := readReq(wire.OpScan, s, col)
	if limit < 0 {
		limit = 0
	}
	req.U32(uint32(limit))
	req.U8(boolByte(withRows))
	r, err := c.doRead(req.Bytes(), s)
	if err != nil {
		return nil, nil, nil, err
	}
	n, err := r.U32()
	if err != nil {
		return nil, nil, nil, err
	}
	ids := make([]int, n)
	values := make([]any, n)
	for i := range ids {
		id, err := r.U64()
		if err != nil {
			return nil, nil, nil, err
		}
		ids[i] = int(id)
		if values[i], err = r.Value(); err != nil {
			return nil, nil, nil, err
		}
	}
	if !withRows {
		return ids, values, nil, nil
	}
	rows := make([][]any, n)
	for i := range rows {
		if rows[i], err = r.Row(); err != nil {
			return nil, nil, nil, err
		}
	}
	return ids, values, rows, nil
}

// Sum aggregates a numeric column over current rows.
func (c *Client) Sum(col string) (uint64, error) { return c.SumAt(Latest, col) }

// SumAt is Sum frozen at the snapshot — on a sharded server a consistent
// cross-shard aggregate.
func (c *Client) SumAt(s Snap, col string) (uint64, error) {
	req := readReq(wire.OpSum, s, col)
	r, err := c.doRead(req.Bytes(), s)
	if err != nil {
		return 0, err
	}
	return r.U64()
}

// Min returns the smallest current value of a numeric column; ok is
// false when no row is visible.
func (c *Client) Min(col string) (any, bool, error) { return c.MinAt(Latest, col) }

// MinAt is Min frozen at the snapshot.
func (c *Client) MinAt(s Snap, col string) (any, bool, error) {
	return c.minMax(wire.OpMin, s, col)
}

// Max returns the largest current value of a numeric column.
func (c *Client) Max(col string) (any, bool, error) { return c.MaxAt(Latest, col) }

// MaxAt is Max frozen at the snapshot.
func (c *Client) MaxAt(s Snap, col string) (any, bool, error) {
	return c.minMax(wire.OpMax, s, col)
}

func (c *Client) minMax(op uint8, s Snap, col string) (any, bool, error) {
	req := readReq(op, s, col)
	r, err := c.doRead(req.Bytes(), s)
	if err != nil {
		return nil, false, err
	}
	okb, err := r.U8()
	if err != nil {
		return nil, false, err
	}
	v, err := r.Value()
	if err != nil {
		return nil, false, err
	}
	return v, okb != 0, nil
}

// CountEqual returns the number of current rows with value v.
func (c *Client) CountEqual(col string, v any) (int, error) {
	return c.CountEqualAt(Latest, col, v)
}

// CountEqualAt is CountEqual frozen at the snapshot.
func (c *Client) CountEqualAt(s Snap, col string, v any) (int, error) {
	cv, err := c.coerce(col, v)
	if err != nil {
		return 0, err
	}
	req := readReq(wire.OpCountEqual, s, col)
	if err := req.Value(cv); err != nil {
		return 0, err
	}
	r, err := c.doRead(req.Bytes(), s)
	if err != nil {
		return 0, err
	}
	n, err := r.U64()
	return int(n), err
}

// ValidRows returns the number of current rows.
func (c *Client) ValidRows() (int, error) { return c.ValidRowsAt(Latest) }

// ValidRowsAt is ValidRows frozen at the snapshot (consistent across
// shards).
func (c *Client) ValidRowsAt(s Snap) (int, error) {
	var req wire.Buffer
	req.U8(wire.OpValidRows)
	req.U64(uint64(s))
	r, err := c.doRead(req.Bytes(), s)
	if err != nil {
		return 0, err
	}
	n, err := r.U64()
	return int(n), err
}

// VisibleAt reports whether the row is visible at the snapshot.
func (c *Client) VisibleAt(s Snap, row int) (bool, error) {
	var req wire.Buffer
	req.U8(wire.OpVisible)
	req.U64(uint64(s))
	req.U64(uint64(row))
	r, err := c.doRead(req.Bytes(), s)
	if err != nil {
		return false, err
	}
	b, err := r.U8()
	return b != 0, err
}
