// Package replica implements the follower side of op-log replication: it
// bootstraps a local store from a primary's snapshot stream, applies the
// op tail, and keeps applying live ops as they arrive, tracking the
// highest epoch at which the local store exactly matches the primary.
//
// # Consistency model
//
// The primary stamps every op with the epoch its mutation committed under
// (the op log's Append IS the stamping point, so log order and epoch order
// agree).  The applier replays ops with those stamps, so replayed rows are
// bit-identical to the primary's: same stable ids, same begin/end epochs,
// same values.  The applied epoch advances only on heartbeats — frames the
// primary sends exclusively when the follower is fully caught up — so at
// any instant, reads at or below AppliedEpoch see exactly what the same
// read sees on the primary.  Ops past the last heartbeat may be partially
// applied, but they are stamped above the applied epoch and are therefore
// invisible to those reads.
//
// # Lifecycle
//
// Open dials the primary, bootstraps (snapshot + tail) and blocks until
// the first heartbeat, so AppliedEpoch is nonzero on return.  A broken
// connection is re-dialed with exponential backoff and the stream resumed
// from the next unapplied LSN; apply is idempotent, so the overlap between
// a snapshot image and the op tail (ops that committed while the snapshot
// was being written) is harmless.  If the primary can no longer serve the
// resume position (op log trimmed past it), the replica stops with a
// permanent error: its store still serves reads at the last applied epoch,
// it just stops advancing.
package replica

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/oplog"
	"hyrise/internal/persist"
	"hyrise/internal/shard"
	"hyrise/internal/wire"
)

// Options configures a Replica.
type Options struct {
	// Logger, if non-nil, receives connection-level diagnostics (stream
	// drops, resubscribe attempts) as structured records.  Nil discards.
	Logger *slog.Logger
	// DialTimeout bounds each dial attempt (0 = 5s).
	DialTimeout time.Duration
	// RetryMin and RetryMax bound the reconnect backoff (0 = 50ms / 2s).
	RetryMin, RetryMax time.Duration
}

func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.New(slog.DiscardHandler)
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o Options) retryMin() time.Duration {
	if o.RetryMin <= 0 {
		return 50 * time.Millisecond
	}
	return o.RetryMin
}

func (o Options) retryMax() time.Duration {
	if o.RetryMax <= 0 {
		return 2 * time.Second
	}
	return o.RetryMax
}

// Stats is a point-in-time summary of the applier's progress.
type Stats struct {
	AppliedEpoch uint64 // highest epoch local reads exactly match the primary at
	PrimaryEpoch uint64 // primary's epoch as of the last heartbeat
	AppliedLSN   uint64 // next op-log position to apply
	Resubscribes uint64 // stream drops that led to a reconnect
	Stopped      bool   // true once the applier has stopped (Close or fatal)
}

// Replica is a live follower: a local store plus the applier goroutine
// feeding it.  It satisfies the server's ReplicaInfo interface, so a
// Server fronting Store() with Options.Replica set serves consistent
// follower reads.
type Replica struct {
	addr string
	opts Options
	log  *slog.Logger // never nil; discards when Options.Logger is nil

	// store mirrors the primary's shard layout: the snapshot image carries
	// it, replayed reshard ops keep it current.
	store *shard.Table

	applied atomic.Uint64 // epoch; advances only on caught-up heartbeats
	primary atomic.Uint64
	lsn     atomic.Uint64 // next LSN to apply
	resubs  atomic.Uint64

	ready     chan struct{} // closed on the first heartbeat
	readyOnce sync.Once
	done      chan struct{} // closed when the applier goroutine exits
	closeCh   chan struct{} // closed by Close
	closeOnce sync.Once

	mu   sync.Mutex
	nc   net.Conn // current stream connection, for Close to sever
	err  error    // permanent failure, if any
	dead bool
}

// ErrPrimaryAborted reports that the primary gave up on the bootstrap image
// it was streaming; Open's error wraps it with the primary's own message.
var ErrPrimaryAborted = errors.New("replica: primary aborted snapshot")

// Open connects to a primary, bootstraps a local store from its snapshot
// stream and starts the applier.  It blocks until the first heartbeat, so
// on success AppliedEpoch is nonzero and reads are immediately servable.
func Open(addr string, opts Options) (*Replica, error) {
	r := &Replica{
		addr:    addr,
		opts:    opts,
		log:     opts.logger(),
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
		closeCh: make(chan struct{}),
	}
	nc, br, err := r.subscribe(wire.SubSnapshot, 0)
	if err != nil {
		return nil, err
	}
	go r.run(nc, br)
	select {
	case <-r.ready:
		return r, nil
	case <-r.done:
		err := r.Err()
		if err == nil {
			err = fmt.Errorf("replica: stream ended before first heartbeat")
		}
		return nil, err
	}
}

// Store returns the local store the primary's ops are applied into.
func (r *Replica) Store() *shard.Table { return r.store }

// AppliedEpoch returns the highest epoch at which local reads exactly
// match the primary's; 0 until the first heartbeat.
func (r *Replica) AppliedEpoch() uint64 { return r.applied.Load() }

// PrimaryEpoch returns the primary's epoch as of the last heartbeat.
func (r *Replica) PrimaryEpoch() uint64 { return r.primary.Load() }

// AppliedLSN returns the next op-log position to apply.
func (r *Replica) AppliedLSN() uint64 { return r.lsn.Load() }

// Stats returns a point-in-time progress summary.
func (r *Replica) Stats() Stats {
	r.mu.Lock()
	dead := r.dead
	r.mu.Unlock()
	return Stats{
		AppliedEpoch: r.applied.Load(),
		PrimaryEpoch: r.primary.Load(),
		AppliedLSN:   r.lsn.Load(),
		Resubscribes: r.resubs.Load(),
		Stopped:      dead,
	}
}

// Err returns the permanent failure that stopped the applier, or nil.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close stops the applier and waits for it to exit.  The local store
// remains usable (it just stops advancing).
func (r *Replica) Close() error {
	r.closeOnce.Do(func() { close(r.closeCh) })
	r.mu.Lock()
	if r.nc != nil {
		r.nc.Close()
	}
	r.mu.Unlock()
	<-r.done
	return nil
}

func (r *Replica) closed() bool {
	select {
	case <-r.closeCh:
		return true
	default:
		return false
	}
}

// fail records a permanent error; the applier stops advancing but the
// store stays readable at the last applied epoch.
func (r *Replica) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.log.Error("replica: permanent failure", "err", err)
}

// setConn publishes the live stream connection so Close can sever it.
func (r *Replica) setConn(nc net.Conn) {
	r.mu.Lock()
	r.nc = nc
	r.mu.Unlock()
}

// run streams and applies until Close or a permanent error, reconnecting
// through transient drops.  nc/br carry the already-subscribed bootstrap
// stream from Open.
func (r *Replica) run(nc net.Conn, br *bufio.Reader) {
	defer func() {
		r.mu.Lock()
		r.dead = true
		r.mu.Unlock()
		close(r.done)
	}()
	backoff := r.opts.retryMin()
	for {
		err := r.stream(br)
		nc.Close()
		r.setConn(nil)
		if r.closed() {
			return
		}
		if isFatal(err) {
			r.fail(err)
			return
		}
		r.log.Warn("replica: stream dropped", "primary", r.addr, "err", err)
		r.resubs.Add(1)
		for {
			select {
			case <-time.After(backoff):
			case <-r.closeCh:
				return
			}
			if backoff *= 2; backoff > r.opts.retryMax() {
				backoff = r.opts.retryMax()
			}
			var derr error
			nc, br, derr = r.subscribe(wire.SubTail, r.lsn.Load())
			if derr == nil {
				backoff = r.opts.retryMin()
				break
			}
			if r.closed() {
				return
			}
			if isFatal(derr) {
				r.fail(derr)
				return
			}
			r.log.Warn("replica: resubscribe failed", "primary", r.addr, "err", derr)
		}
	}
}

// fatalError marks failures no reconnect can cure: the primary explicitly
// refused the subscription (log trimmed past our position, replication
// disabled, a primary of another protocol version), or the stream content
// itself is inconsistent.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

func isFatal(err error) bool {
	_, ok := err.(fatalError)
	return ok
}

// subscribe dials the primary and performs the subscribe handshake.  In
// snapshot mode (Open's bootstrap) it also consumes the snapshot image and
// builds the local store.  On success the connection is positioned at the
// start of the op/heartbeat stream and published for Close to sever.
func (r *Replica) subscribe(mode uint8, from uint64) (net.Conn, *bufio.Reader, error) {
	nc, err := net.DialTimeout("tcp", r.addr, r.opts.dialTimeout())
	if err != nil {
		return nil, nil, err
	}
	ok := false
	defer func() {
		if !ok {
			nc.Close()
		}
	}()
	var req wire.Buffer
	req.U8(wire.OpSubscribe)
	req.U32(wire.ProtocolVersion)
	req.U8(mode)
	req.U64(from)
	bw := bufio.NewWriter(nc)
	if err := wire.WriteFrame(bw, req.Bytes()); err != nil {
		return nil, nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	resp, err := wire.ReadFrame(br)
	if err != nil {
		return nil, nil, err
	}
	body := wire.NewReader(resp)
	status, err := body.U8()
	if err != nil {
		return nil, nil, fmt.Errorf("replica: empty subscribe response")
	}
	if status != wire.StatusOK {
		msg, _ := body.String()
		// A reasoned refusal is permanent: the primary is alive and said
		// no (log trimmed, replication off, another protocol version, bad
		// request).
		return nil, nil, fatalError{fmt.Errorf("replica: primary refused subscription (status 0x%02x): %s", status, msg)}
	}
	gotMode, err := body.U8()
	var start uint64
	if err == nil {
		start, err = body.U64()
	}
	if err == nil {
		err = body.Rest()
	}
	if err == nil && gotMode != mode {
		err = fmt.Errorf("replica: subscribe mode mismatch: asked 0x%02x, got 0x%02x", mode, gotMode)
	}
	if err == nil && mode == wire.SubTail && start != from {
		err = fmt.Errorf("replica: tail started at LSN %d, want %d", start, from)
	}
	if err != nil {
		return nil, nil, fatalError{err}
	}
	if mode == wire.SubSnapshot {
		sr := &snapReader{br: br}
		st, err := persist.Load(sr)
		if err != nil {
			// Malformed bytes wrap persist.ErrFormat; a stream failure
			// (dropped connection, ErrPrimaryAborted) passes through Load.
			return nil, nil, fmt.Errorf("replica: snapshot bootstrap: %w", err)
		}
		// The loader stops exactly at the image end; consume the
		// FrameSnapEnd marker so the op stream starts frame-aligned.
		var tmp [1]byte
		if n, rerr := sr.Read(tmp[:]); n != 0 || rerr != io.EOF {
			return nil, nil, fatalError{fmt.Errorf("replica: trailing bytes after snapshot image (n=%d, err=%v)", n, rerr)}
		}
		r.store = st
		r.lsn.Store(start)
	}
	ok = true
	r.setConn(nc)
	return nc, br, nil
}

// stream reads and applies op/heartbeat frames until the connection
// breaks or the content is inconsistent.
func (r *Replica) stream(br *bufio.Reader) error {
	for {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			return err
		}
		if len(frame) == 0 {
			return fatalError{fmt.Errorf("replica: empty stream frame")}
		}
		body := wire.NewReader(frame[1:])
		switch frame[0] {
		case wire.FrameOps:
			n, err := body.U32()
			if err != nil {
				return fatalError{err}
			}
			for i := uint32(0); i < n; i++ {
				op, err := oplog.Decode(body)
				if err != nil {
					return fatalError{err}
				}
				if want := r.lsn.Load(); op.LSN != want {
					return fatalError{fmt.Errorf("replica: op LSN %d out of order, want %d", op.LSN, want)}
				}
				if err := r.apply(op); err != nil {
					return fatalError{fmt.Errorf("replica: apply op %d: %w", op.LSN, err)}
				}
				r.lsn.Store(op.LSN + 1)
			}
			if err := body.Rest(); err != nil {
				return fatalError{err}
			}
		case wire.FrameHeartbeat:
			safe, err := body.U64()
			var primaryE, next uint64
			if err == nil {
				primaryE, err = body.U64()
			}
			if err == nil {
				next, err = body.U64()
			}
			if err == nil {
				err = body.Rest()
			}
			if err != nil {
				return fatalError{err}
			}
			r.primary.Store(primaryE)
			// The heartbeat's safe epoch covers exactly the ops below
			// next; it becomes our applied epoch only if we have applied
			// all of them (which stream order guarantees — the check is a
			// cross-check, not a race guard).
			if next == r.lsn.Load() {
				r.store.Clock().AdvanceTo(safe)
				if safe > r.applied.Load() {
					r.applied.Store(safe)
				}
				r.readyOnce.Do(func() { close(r.ready) })
			}
		case wire.FrameError:
			msg, _ := body.String()
			// The primary reported a stream-level failure (snapshot save
			// aborted, log trimmed under us).  A trimmed log cannot heal,
			// and resubscribing answers the question definitively, so
			// treat it as retryable and let the resubscribe decide.
			return fmt.Errorf("replica: primary error: %s", msg)
		default:
			return fatalError{fmt.Errorf("replica: unexpected stream frame kind 0x%02x", frame[0])}
		}
	}
}

// apply replays one op into the local store with the primary's stamps.
func (r *Replica) apply(op oplog.Op) error {
	switch op.Kind {
	case oplog.KindReshardBegin:
		// The primary logged the begin BEFORE routing any op to the new
		// partitions, so creating them here keeps every later op's target
		// in range.  Idempotent by shard-map version: a begin already
		// covered by the bootstrap snapshot's topology is skipped.
		return r.store.ApplyReshardBegin(int(op.Shard), int(op.ID), op.ID2)
	case oplog.KindReshardCutover:
		return r.store.ApplyReshardCutover(int(op.Shard), int(op.ID), op.ID2)
	}
	// An op naming a partition whose drained window left the store is
	// skipped (shard.Table.ReplayPartition); so is either half of a move.
	p, err := r.store.ReplayPartition(int(op.Shard))
	if err != nil || (p == nil && op.Kind != oplog.KindMove) {
		return err
	}
	switch op.Kind {
	case oplog.KindInsert:
		return p.ApplyInsert(op.ID, op.Rows, op.Epoch)
	case oplog.KindUpdate:
		return p.ApplyUpdate(op.ID, op.ID2, op.Rows[0], op.Epoch)
	case oplog.KindDelete:
		return p.ApplyInvalidate(op.ID, op.Epoch)
	case oplog.KindMove:
		dst, err := r.store.ReplayPartition(int(op.Dst))
		if err != nil {
			return err
		}
		// The two halves are applied separately, but both carry the op's
		// single stamp, which is above every servable read epoch until the
		// next heartbeat — so no reader can observe the intermediate state,
		// matching the primary's both-locks-one-stamp atomicity.
		if p != nil {
			if err := p.ApplyInvalidate(op.ID, op.Epoch); err != nil {
				return err
			}
		}
		if dst == nil {
			return nil
		}
		return dst.ApplyInsert(op.ID2, [][]any{op.Rows[0]}, op.Epoch)
	default:
		return fmt.Errorf("unknown op kind 0x%02x", uint8(op.Kind))
	}
}

// snapReader adapts the FrameSnapChunk/FrameSnapEnd stream into the
// io.Reader the snapshot loader wants.
type snapReader struct {
	br   *bufio.Reader
	buf  []byte
	done bool
}

func (sr *snapReader) Read(p []byte) (int, error) {
	for len(sr.buf) == 0 {
		if sr.done {
			return 0, io.EOF
		}
		frame, err := wire.ReadFrame(sr.br)
		if err != nil {
			return 0, err
		}
		if len(frame) == 0 {
			return 0, fmt.Errorf("replica: empty snapshot frame")
		}
		switch frame[0] {
		case wire.FrameSnapChunk:
			sr.buf = frame[1:]
		case wire.FrameSnapEnd:
			sr.done = true
		case wire.FrameError:
			msg, _ := wire.NewReader(frame[1:]).String()
			return 0, fmt.Errorf("%w: %s", ErrPrimaryAborted, msg)
		default:
			return 0, fmt.Errorf("replica: unexpected frame kind 0x%02x in snapshot", frame[0])
		}
	}
	n := copy(p, sr.buf)
	sr.buf = sr.buf[n:]
	return n, nil
}
