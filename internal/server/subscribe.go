package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"time"

	"hyrise/internal/oplog"
	"hyrise/internal/persist"
	"hyrise/internal/wire"
)

const (
	// subSnapChunk is the payload size of one FrameSnapChunk frame.
	subSnapChunk = 256 << 10
	// subOpsBudget is the soft byte budget of one FrameOps frame; a frame
	// is cut once its encoded ops pass it (a single op always goes out
	// whole, whatever its size).
	subOpsBudget = 1 << 20
	// subOpsBatch is how many ops one ReadFrom call pulls from the log.
	subOpsBatch = 512
	// subIdleTick bounds how long a caught-up subscriber waits before
	// re-checking the safe epoch: the clock advances on Capture without
	// appending, so epoch progress alone must still reach followers.
	subIdleTick = 50 * time.Millisecond
	// subWriteTimeout is the per-flush write deadline; a follower that
	// stops draining its socket is cut off rather than wedging the
	// streamer goroutine forever.
	subWriteTimeout = 30 * time.Second
)

// serveSubscribe turns a session into a one-way replication stream.  The
// request carries the follower's protocol version (a mismatch is refused
// as OpHello refuses it, before anything is streamed), the wanted mode
// (SubSnapshot for a fresh bootstrap, SubTail to resume) and, for
// SubTail, the next LSN the follower needs.
// The response is StatusOK, the granted mode u8 and startLSN u64; in
// snapshot mode it is followed by FrameSnapChunk frames carrying a
// persist-format snapshot and a FrameSnapEnd, and in both modes by an
// endless stream of FrameOps batches (ops from startLSN on, in LSN order)
// interleaved with FrameHeartbeat frames whenever the subscriber is caught
// up.  Heartbeats are sent only at log positions equal to the log's next
// LSN, so their safe epoch is exact: the follower has applied every op
// stamped at or below it.
func (s *Server) serveSubscribe(c *conn, payload []byte, bw *bufio.Writer) {
	// A subscriber is a permanently-open stream: it must not hold a
	// graceful drain open the way an in-flight request does.  The drain
	// closes its socket; the follower re-subscribes elsewhere.
	c.busy.Store(false)

	var out wire.Buffer
	r := wire.NewReader(payload)
	ver, err := r.U32()
	if err == nil {
		err = checkVersion(ver)
	}
	var mode uint8
	if err == nil {
		mode, err = r.U8()
	}
	var from uint64
	if err == nil {
		from, err = r.U64()
	}
	if err == nil {
		err = r.Rest()
	}
	if err == nil && mode != wire.SubSnapshot && mode != wire.SubTail {
		err = fmt.Errorf("%w: unknown subscribe mode 0x%02x", wire.ErrMalformed, mode)
	}
	log := s.opts.OpLog
	if err == nil && log == nil {
		err = fmt.Errorf("%w: replication not enabled on this server", wire.ErrMalformed)
	}
	if err == nil && mode == wire.SubTail {
		// A tail resume is honored only while the log still covers the
		// follower's position; past that, the follower's only option is a
		// fresh store, which it must decide on — a silent downgrade to
		// snapshot mode would corrupt the store it already has.
		if first, next := log.Bounds(); from < first || from > next {
			err = fmt.Errorf("%w: cannot resume from LSN %d (log covers [%d, %d))",
				errBadSnapshot, from, first, next)
		}
	}
	if err != nil {
		s.fail(&out, err)
		if wire.WriteFrame(bw, out.Bytes()) == nil {
			bw.Flush()
		}
		return
	}

	s.addSubscriber(c)
	defer s.removeSubscriber(c)

	send := func(frame []byte) error {
		c.nc.SetWriteDeadline(time.Now().Add(subWriteTimeout))
		return wire.WriteFrame(bw, frame)
	}
	flush := func() error {
		c.nc.SetWriteDeadline(time.Now().Add(subWriteTimeout))
		return bw.Flush()
	}
	// streamFail reports an error after the OK response is out, when the
	// only channel left is the frame stream itself.
	streamFail := func(err error) {
		out.Reset()
		out.U8(wire.FrameError)
		out.String(err.Error())
		if send(out.Bytes()) == nil {
			flush()
		}
		s.log.Warn("server: subscriber stream failed",
			"remote", c.nc.RemoteAddr().String(), "err", err)
	}

	pos := from
	if mode == wire.SubSnapshot {
		// Read the cut point BEFORE the snapshot is taken: every op with
		// an LSN below it is fully contained in the snapshot (appends run
		// under the table write lock, which each partition's image capture
		// waits out), and ops straddling the cut are absorbed by the
		// idempotent apply path on the follower.
		pos = log.NextLSN()
	}

	out.Reset()
	out.U8(wire.StatusOK)
	out.U8(mode)
	out.U64(pos)
	if send(out.Bytes()) != nil || flush() != nil {
		return
	}

	if mode == wire.SubSnapshot {
		cw := &chunkWriter{send: send}
		err = persist.Save(s.st, cw)
		if err == nil {
			err = cw.close()
		}
		if err != nil {
			// Only the connection can fail a save, not the store.  A
			// half-sent image cannot be retried in-stream (the follower
			// already consumed its prefix): say why, if the stream still
			// carries it, and end it.
			streamFail(fmt.Errorf("snapshot stream: %w", err))
			return
		}
		if flush() != nil {
			return
		}
	}

	idle := time.NewTicker(subIdleTick)
	defer idle.Stop()
	for {
		// Grab the wakeup channel BEFORE reading, so an append racing with
		// the read trips the select below instead of being slept through.
		notify := log.Notify()
		ops, ok := log.ReadFrom(pos, subOpsBatch)
		if !ok {
			streamFail(fmt.Errorf("op log trimmed past LSN %d; re-subscribe from scratch", pos))
			return
		}
		if len(ops) > 0 {
			if err := sendOpFrames(send, ops); err != nil {
				return
			}
			pos = ops[len(ops)-1].LSN + 1
			continue
		}
		// Caught up.  Advertise the safe epoch only if nothing was
		// appended between the read and the SafeEpoch call — a heartbeat
		// at a stale position would claim ops the follower hasn't seen.
		safe, primary, n := log.SafeEpoch()
		if n == pos {
			out.Reset()
			out.U8(wire.FrameHeartbeat)
			out.U64(safe)
			out.U64(primary)
			out.U64(n)
			if send(out.Bytes()) != nil || flush() != nil {
				return
			}
			select {
			case <-notify:
			case <-idle.C:
			case <-s.drainCh:
				return
			}
		}
	}
}

// sendOpFrames streams ops as FrameOps frames: kind u8, count u32, then
// count encoded ops.  Frames are cut at subOpsBudget encoded bytes.
func sendOpFrames(send func([]byte) error, ops []oplog.Op) error {
	for start := 0; start < len(ops); {
		var body wire.Buffer
		n := 0
		for start+n < len(ops) && (n == 0 || len(body.Bytes()) < subOpsBudget) {
			if err := ops[start+n].EncodeInto(&body); err != nil {
				return err
			}
			n++
		}
		frame := make([]byte, 5, 5+len(body.Bytes()))
		frame[0] = wire.FrameOps
		binary.BigEndian.PutUint32(frame[1:5], uint32(n))
		frame = append(frame, body.Bytes()...)
		if err := send(frame); err != nil {
			return err
		}
		start += n
	}
	return nil
}

// chunkWriter adapts the frame stream into an io.Writer for the snapshot
// encoder: bytes written accumulate into FrameSnapChunk frames of
// subSnapChunk payload bytes, and close flushes the remainder followed by
// a FrameSnapEnd marker.
type chunkWriter struct {
	send func([]byte) error
	buf  []byte
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if w.buf == nil {
			w.buf = make([]byte, 1, 1+subSnapChunk)
			w.buf[0] = wire.FrameSnapChunk
		}
		n := 1 + subSnapChunk - len(w.buf)
		if n > len(p) {
			n = len(p)
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		if len(w.buf) == 1+subSnapChunk {
			if err := w.send(w.buf); err != nil {
				return total - len(p), err
			}
			w.buf = w.buf[:1]
		}
	}
	return total, nil
}

func (w *chunkWriter) close() error {
	if len(w.buf) > 1 {
		if err := w.send(w.buf); err != nil {
			return err
		}
	}
	return w.send([]byte{wire.FrameSnapEnd})
}
