package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/oplog"
	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/wire"
)

// DefaultMaxSnapshots bounds the snapshot registry when
// Options.MaxSnapshots is zero.  Every registered snapshot pins its
// epoch against GC, so an unbounded registry would let one
// misbehaving client (capturing in a loop, or crashing without Release)
// pin dead versions forever.
const DefaultMaxSnapshots = 1024

// ReplicaInfo is the follower-state surface a replica applier
// (internal/replica) exposes to the server that fronts it: the epoch the
// local store exactly matches the primary at, the primary's epoch as of
// the last heartbeat, the next op-log position to apply, and the permanent
// failure that stopped the applier (nil while it runs).
type ReplicaInfo interface {
	AppliedEpoch() uint64
	PrimaryEpoch() uint64
	AppliedLSN() uint64
	Err() error
}

// Options configures a Server.
type Options struct {
	// Logger, if non-nil, receives connection-level diagnostics (accept
	// failures, protocol violations) and slow-op lines as structured
	// records.  Per-request errors are reported to the client, not
	// logged.  Nil discards.
	Logger *slog.Logger
	// MaxSnapshots caps the snapshot registry's pinned epochs (0 =
	// DefaultMaxSnapshots; negative = unlimited).  OpSnapshotEpoch beyond
	// the cap fails with wire.StatusErrTooManySnapshots until a snapshot
	// is released.
	MaxSnapshots int
	// OpLog, when set, makes this server a replication primary: OpSubscribe
	// bootstraps followers (snapshot + log tail) and streams live ops.  The
	// log must already be attached to the store's write path (AttachOplog)
	// and be stamped by the store's clock.
	OpLog *oplog.Log
	// Replica, when set, makes this server a read-only follower fed by the
	// given applier: mutations fail with wire.StatusErrReadOnly, and
	// snapshots are captured at the applier's applied epoch — the highest
	// epoch at which local reads exactly match the primary's.
	Replica ReplicaInfo
	// SlowOpThreshold, when positive, logs one structured warning for
	// every request whose handling exceeds it (opcode, duration, rows
	// touched, snapshot epoch).  Zero disables slow-op tracing.
	SlowOpThreshold time.Duration
}

func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// Server serves the wire protocol over one shard.Table.  Create with New,
// start with Serve, stop with Shutdown (graceful) or Close (immediate).
type Server struct {
	st   *shard.Table
	opts Options

	mu       sync.Mutex
	listener net.Listener
	conns    map[*conn]struct{}
	draining bool

	wg sync.WaitGroup // one per live session

	snapMu sync.Mutex
	snaps  map[uint64]snapPin // registered snapshot epochs

	// drainCh is closed when a drain begins; subscribe streamers select on
	// it so a graceful shutdown wakes them out of their idle waits.
	drainCh   chan struct{}
	drainOnce sync.Once

	subMu sync.Mutex
	subs  map[*conn]struct{} // live replication subscribers

	started time.Time    // hyrise_server_uptime_seconds base
	log     *slog.Logger // never nil; discards when Options.Logger is nil
	mx      *serverMetrics

	// lifeCtx is cancelled when sessions are force-closed (Close, or
	// Shutdown's deadline); long-running handler work (merges) runs
	// under it so a stuck request cannot outlive the force-close.
	lifeCtx    context.Context
	cancelLife context.CancelFunc
}

// New returns a stopped server over st.
func New(st *shard.Table, opts Options) *Server {
	s := &Server{
		st:      st,
		opts:    opts,
		conns:   make(map[*conn]struct{}),
		snaps:   make(map[uint64]snapPin),
		drainCh: make(chan struct{}),
		subs:    make(map[*conn]struct{}),
		started: time.Now(),
		log:     opts.logger(),
	}
	s.lifeCtx, s.cancelLife = context.WithCancel(context.Background())
	s.mx = newServerMetrics(s)
	return s
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on l until Shutdown or Close, blocking.  It
// returns ErrServerClosed after a clean stop, or the accept error that
// ended the loop otherwise.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		c := &conn{nc: nc}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Shutdown gracefully stops the server: no new connections are accepted,
// idle sessions close, and in-flight requests run to completion with
// their responses flushed.  When ctx expires first, the remaining
// sessions are closed forcibly and ctx.Err is returned.  Either way,
// every snapshot still registered is released on the way out: the pins
// are this server instance's state, no client can release them after the
// stop, and leaving them behind would freeze the store's GC watermark
// forever (the store itself may well outlive the server — hyrise.Serve
// embedders keep using it locally).
func (s *Server) Shutdown(ctx context.Context) error {
	defer s.ReleaseAllSnapshots()
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		s.closeConns(false)
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			s.closeConns(true)
			<-done
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Close stops the server immediately, dropping in-flight requests.  Like
// Shutdown it releases every registered snapshot pin.
func (s *Server) Close() error {
	s.beginDrain()
	s.closeConns(true)
	s.wg.Wait()
	s.ReleaseAllSnapshots()
	return nil
}

func (s *Server) beginDrain() {
	s.mu.Lock()
	s.draining = true
	l := s.listener
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drainCh) })
	if l != nil {
		l.Close()
	}
}

// closeConns closes sessions: idle ones always (they are blocked waiting
// for the first byte of a next request, which will never be answered
// once draining), active ones only when force is set.  A session counts
// as active from the moment its next request starts arriving (serveConn
// peeks before decoding), so a request already in flight when the drain
// begins is executed and answered, not cut off mid-frame.  Force-close
// also cancels lifeCtx so in-flight merges abort instead of outliving
// the deadline.
func (s *Server) closeConns(force bool) {
	if force {
		s.cancelLife()
	}
	s.mu.Lock()
	targets := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		if force || c.idle() {
			targets = append(targets, c)
		}
	}
	s.mu.Unlock()
	for _, c := range targets {
		c.nc.Close()
	}
}

// Subscribers returns the number of connected replication followers.
func (s *Server) Subscribers() int {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	return len(s.subs)
}

func (s *Server) addSubscriber(c *conn) {
	s.subMu.Lock()
	s.subs[c] = struct{}{}
	s.subMu.Unlock()
}

func (s *Server) removeSubscriber(c *conn) {
	s.subMu.Lock()
	delete(s.subs, c)
	s.subMu.Unlock()
}

// role reports what OpHello announces.
func (s *Server) role() uint8 {
	if s.opts.Replica != nil {
		return wire.RoleFollower
	}
	return wire.RolePrimary
}

// ActiveConns returns the number of live sessions.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// snapPin is one registered snapshot epoch: its pinned view and how many
// registrations (OpSnapshotEpoch answers) have not been released.
type snapPin struct {
	v table.View
	n int
}

// SnapshotCount returns the number of registered (pinned) snapshot epochs.
func (s *Server) SnapshotCount() int {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return len(s.snaps)
}

// maxSnapshots resolves the registry cap.
func (s *Server) maxSnapshots() int {
	switch {
	case s.opts.MaxSnapshots == 0:
		return DefaultMaxSnapshots
	case s.opts.MaxSnapshots < 0:
		return int(^uint(0) >> 1)
	default:
		return s.opts.MaxSnapshots
	}
}

// registerSnapshot pins a snapshot epoch in the registry and returns it.
// On a primary this is a fresh pinned capture; on a follower it is a
// pinned view at the applied epoch, the highest epoch at which local state
// exactly equals the primary's, and a second registration of an epoch
// counts on the first one's pin.  The registry is bounded: each pinned
// epoch holds the GC watermark down, so past the cap the capture is
// refused (and the just-taken pin released) instead of letting a leaky
// client pin history forever.
func (s *Server) registerSnapshot() (uint64, error) {
	var v table.View
	if rep := s.opts.Replica; rep != nil {
		var err error
		if v, err = s.pinAt(rep.AppliedEpoch()); err != nil {
			return 0, err
		}
	} else {
		v = s.st.Snapshot()
		if l := s.opts.OpLog; l != nil {
			// The capture advanced the clock: wake caught-up subscribers
			// so the new safe epoch heartbeats immediately and followers
			// can serve this snapshot's reads without waiting an idle tick.
			l.Wake()
		}
	}
	e := v.Epoch()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if p, ok := s.snaps[e]; ok {
		v.Release()
		s.snaps[e] = snapPin{p.v, p.n + 1}
		return e, nil
	}
	if len(s.snaps) >= s.maxSnapshots() {
		v.Release()
		return 0, fmt.Errorf("%w: %d registered", errTooManySnapshots, len(s.snaps))
	}
	s.snaps[e] = snapPin{v, 1}
	return e, nil
}

// pinAt pins a follower's applied epoch e on the store's clock and verifies
// e's history is still complete on every partition.  The pin is registered
// before the check, so any garbage-collecting merge either sees the pin
// when it computes its watermark (and keeps e's history) or froze earlier
// — in which case its intent is visible through GCBound and caught here.
func (s *Server) pinAt(e uint64) (table.View, error) {
	if e == 0 {
		return table.View{}, fmt.Errorf("%w: follower has not applied any epoch yet", errBadSnapshot)
	}
	v := table.PinnedViewAt(s.st.Clock(), e)
	for _, p := range s.st.Partitions() {
		if b := p.GCBound(); b > e {
			v.Release()
			return table.View{}, fmt.Errorf("%w: epoch %d already below GC bound %d", errBadSnapshot, e, b)
		}
	}
	return v, nil
}

// ReleaseAllSnapshots releases every registered snapshot (dropping their
// GC pins) and empties the registry, returning how many epochs were
// pinned.  Shutdown and Close call it automatically so stale snapshots
// cannot pin history on a store that outlives the server.
func (s *Server) ReleaseAllSnapshots() int {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	n := len(s.snaps)
	for e, p := range s.snaps {
		p.v.Release()
		delete(s.snaps, e)
	}
	return n
}

// errBadSnapshot maps to wire.StatusErrBadSnapshot: the requested epoch is
// not servable here (past this server's epoch, not registered for release,
// or below a follower's GC bound); a routing client falls back to the
// primary.  table.ErrReclaimed maps to the same status.
var errBadSnapshot = errors.New("server: epoch not servable")

// errReadOnly maps to wire.StatusErrReadOnly.
var errReadOnly = errors.New("server: read-only follower")

// errTooManySnapshots maps to wire.StatusErrTooManySnapshots.
var errTooManySnapshots = errors.New("server: snapshot registry full")

// viewFor resolves a wire read epoch: 0 is latest, a registered epoch
// reads through its pinned view, and any other closed epoch — below Now(),
// which mutations still stamp, on a primary; up to the applied epoch on a
// follower — through an unpinned view, which reads exactly or fails with
// table.ErrReclaimed once a reclaiming merge has passed it.  Refusing later
// epochs also refuses epoch.Latest, which no client may name.
func (s *Server) viewFor(e uint64) (table.View, error) {
	if e == 0 {
		return table.Latest(), nil
	}
	s.snapMu.Lock()
	p, ok := s.snaps[e]
	s.snapMu.Unlock()
	if ok {
		return p.v, nil
	}
	top := s.st.Clock().Now() - 1
	if rep := s.opts.Replica; rep != nil {
		top = rep.AppliedEpoch()
	}
	if e > top {
		return table.View{}, fmt.Errorf("%w: epoch %d is past %d", errBadSnapshot, e, top)
	}
	return table.ViewAt(e), nil
}

// releaseSnapshot drops one registration of an epoch, and the epoch's GC
// pin with its last.
func (s *Server) releaseSnapshot(e uint64) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	p, ok := s.snaps[e]
	switch {
	case !ok:
		return fmt.Errorf("%w: epoch %d is not pinned", errBadSnapshot, e)
	case p.n > 1:
		s.snaps[e] = snapPin{p.v, p.n - 1}
	default:
		p.v.Release()
		delete(s.snaps, e)
	}
	return nil
}

// conn is one session.
type conn struct {
	nc net.Conn
	// busy is set from the first byte of a request until its response is
	// written and flushed; the session is idle — and safe for a graceful
	// drain to close — only while it is clear.
	busy atomic.Bool
}

// idle reports whether no request is in flight on this session.
func (c *conn) idle() bool { return !c.busy.Load() }

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// serveConn runs one session: read a request, execute it, write and flush
// its response, in this goroutine.  Responses therefore go out in request
// order and a request pipelined behind a write observes that write;
// concurrency comes from sessions running side by side.
func (s *Server) serveConn(c *conn) {
	defer s.wg.Done()
	defer s.removeConn(c)
	defer c.nc.Close()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var out wire.Buffer
	for {
		// Block for the first byte of the next request while still
		// counted idle, then mark the session busy before decoding the
		// frame: a drain that lands mid-request closes only sessions that
		// have not started sending, so no mutation is executed with its
		// response dropped (barring the unavoidable instant between the
		// byte arriving and the flag being set).
		if _, err := br.Peek(1); err != nil {
			return
		}
		c.busy.Store(true)
		payload, err := wire.ReadFrame(br)
		if err != nil {
			// EOF and closed-socket errors are normal session ends.  An
			// oversized frame gets a best-effort error answer, but the
			// payload was never consumed, so the session must end.
			if errors.Is(err, wire.ErrFrameTooLarge) {
				out.Reset()
				out.U8(wire.StatusErrBadRequest)
				out.String(err.Error())
				if wire.WriteFrame(bw, out.Bytes()) == nil {
					bw.Flush()
				}
				s.log.Warn("server: oversized frame",
					"remote", c.nc.RemoteAddr().String(), "err", err)
			}
			return
		}
		var op uint8
		if len(payload) > 0 {
			op = payload[0]
		}
		// OpSubscribe turns the session into a one-way replication stream;
		// it never returns to request/response handling.
		if op == wire.OpSubscribe {
			s.serveSubscribe(c, payload[1:], bw)
			return
		}
		if br.Buffered() > 0 {
			// The next request is already queued behind this one: the
			// client is pipelining.
			s.mx.pipelined.Inc()
		}
		s.execute(c, op, payload, &out)
		err = wire.WriteFrame(bw, out.Bytes())
		if errors.Is(err, wire.ErrFrameTooLarge) {
			// The result outgrew the frame limit (e.g. an unbounded scan
			// of a huge table): answer with an error instead so the
			// session survives and stays in sync.
			out.Reset()
			out.U8(wire.StatusErr)
			out.String(fmt.Sprintf("response exceeds %d-byte frame limit; narrow the request", wire.MaxFrame))
			err = wire.WriteFrame(bw, out.Bytes())
		}
		if err == nil {
			err = bw.Flush()
		}
		c.busy.Store(false)
		if err != nil {
			return
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
	}
}

// execute runs one decoded request to completion, filling out with the
// full response payload and doing the per-request accounting: metrics,
// error counting, slow-op tracing.
func (s *Server) execute(c *conn, op uint8, payload []byte, out *wire.Buffer) {
	om := s.mx.byOp[op]
	start := time.Now()
	var info reqInfo
	out.Reset()
	s.handle(payload, out, &info)
	om.reqs.Inc()
	status := uint8(wire.StatusErr)
	if b := out.Bytes(); len(b) > 0 {
		status = b[0]
	}
	if status != wire.StatusOK {
		om.errs.Inc()
	}
	dur := time.Since(start)
	om.lat.ObserveDuration(dur)
	if th := s.opts.SlowOpThreshold; th > 0 && dur >= th {
		s.mx.slowOps.Inc()
		s.log.Warn("slow op",
			"op", wire.OpName(op), "duration", dur,
			"rows", info.rows, "epoch", info.epoch,
			"status", status, "remote", c.nc.RemoteAddr().String())
	}
}
