// Package wire defines the binary protocol spoken between the hyrise
// network server (internal/server, cmd/hyrised) and the Go client
// (hyrise/client): framing, opcodes, status codes and the encoding of
// values, rows, filters and results.  Both sides share this package, so
// the encoding is written exactly once.
//
// # Framing
//
// Every message — request or response — is one frame:
//
//	uint32 big-endian payload length | payload bytes
//
// A request payload starts with a one-byte opcode followed by the
// op-specific body.  A response payload starts with a one-byte status
// (StatusOK or an error code); an error response carries a UTF-8 message
// string, a success response the op-specific result body.  Responses are
// returned in request order on each connection, so clients may pipeline.
//
// Frames larger than MaxFrame are rejected without being read; every
// count and length inside a payload is bounds-checked against the
// payload, so a malformed or hostile frame produces a decode error, never
// a crash or an over-allocation.
//
// # Scalar encodings
//
//	u8/u16/u32/u64  big-endian fixed width
//	string          u32 length + bytes
//	value           u8 type tag (TagUint32|TagUint64|TagString) + scalar
//	row             u16 column count + that many values
//	row ids         u32 count + u64 per id
//	filter          string column, u8 op (OpFilterEq|OpFilterBetween),
//	                value, and for Between a second (hi) value
//
// A read names its snapshot by its epoch, a u64: 0 ("latest") is always
// valid and reads current versions; any other epoch reads exactly the
// versions visible at it, or fails with StatusErrBadSnapshot when the
// server cannot serve it exactly (an epoch the server has not closed, or
// one garbage collection has passed).  OpSnapshotEpoch captures an epoch and
// pins it against garbage collection until OpSnapshotRelease; the token a
// client holds is that epoch, valid on every server of the store.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// MaxFrame is the largest accepted frame payload (requests and
// responses).  Batches larger than this must be split by the client.
const MaxFrame = 16 << 20

// ProtocolVersion identifies the one protocol this build speaks: the
// opcode set and the request/response layouts below.  There is no
// negotiation.  OpHello carries the sender's version so that a peer built
// from a different protocol is refused with a typed error (the server
// answers StatusErrBadRequest, the client fails Dial) instead of the two
// sides misparsing each other's frames.
const ProtocolVersion = 10

// Opcodes.  The zero value is intentionally invalid, and the numbers in
// unassigned are holes: a frame carrying one is answered like any unknown
// opcode.
const (
	OpPing            = 0x01 // -> empty
	OpSchema          = 0x02 // -> name, key string, schema
	OpInsert          = 0x03 // row -> id u64
	OpInsertBatch     = 0x04 // u32 n + rows -> u32 n + ids
	OpUpdate          = 0x05 // id u64, u16 n + (col string, value) -> id u64
	OpDelete          = 0x06 // id u64 -> empty
	OpRow             = 0x07 // id u64 -> row
	OpIsValid         = 0x08 // id u64 -> u8
	OpSnapshotRelease = 0x0a // epoch u64 -> empty
	OpLookup          = 0x0b // epoch u64, col string, value -> ids
	OpRange           = 0x0c // epoch u64, col string, lo value, hi value -> ids
	OpScan            = 0x0d // epoch u64, col string, limit u32, withRows u8 -> scan result
	OpSum             = 0x0e // epoch u64, col string -> u64
	OpMin             = 0x0f // epoch u64, col string -> u8 ok + value
	OpMax             = 0x10 // epoch u64, col string -> u8 ok + value
	OpCountEqual      = 0x11 // epoch u64, col string, value -> u64
	OpQuery           = 0x12 // epoch u64, filters, u16 n + project strings -> query result
	OpValidRows       = 0x13 // epoch u64 -> u64
	OpVisible         = 0x14 // epoch u64, id u64 -> u8
	OpMerge           = 0x16 // threads u32 (0 = all; clamped to the server's GOMAXPROCS) -> merge report

	OpHello         = 0x17 // version u32 -> version u32, role u8 (error unless the versions match)
	OpSnapshotEpoch = 0x19 // -> epoch u64 (pinned until OpSnapshotRelease)
	OpSubscribe     = 0x1b // version u32, mode u8, fromLSN u64 -> mode u8, startLSN u64, then stream (error unless the versions match)

	OpCreateIndex = 0x1c // col string -> empty

	OpMetrics = 0x1e // -> u32 n + per sample: name string, float64 bits u64 (every server, store and index number)

	OpReshard = 0x1f // shards u32 -> from u32, to u32, migrated u64, wallNs u64, cutoverNs u64, mapVersion u64, cutoverEpoch u64
)

// unassigned lists the holes in the opcode numbering, retired opcodes
// whose numbers are not reused: 0x09 (an epoch-less snapshot capture),
// 0x15 (store stats), 0x18 (server stats), 0x1a (pinning an epoch under a
// second, follower-side token) and 0x1d (index stats).
var unassigned = [...]uint8{0x09, 0x15, 0x18, 0x1a, 0x1d}

// opLast is the highest opcode this build knows; Opcodes() iterates up to
// it, and the opcode-coverage test pins OpName against it.
const opLast = OpReshard

// OpName returns the lower-case wire name of an opcode ("lookup",
// "insert_batch", ...), or "op_0xNN" for opcodes this build does not
// know.  The server uses it to label per-op metric series, so the names
// are stable API: Prometheus queries reference them.
func OpName(op uint8) string {
	switch op {
	case OpPing:
		return "ping"
	case OpSchema:
		return "schema"
	case OpInsert:
		return "insert"
	case OpInsertBatch:
		return "insert_batch"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpRow:
		return "row"
	case OpIsValid:
		return "is_valid"
	case OpSnapshotRelease:
		return "snapshot_release"
	case OpLookup:
		return "lookup"
	case OpRange:
		return "range"
	case OpScan:
		return "scan"
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpCountEqual:
		return "count_equal"
	case OpQuery:
		return "query"
	case OpValidRows:
		return "valid_rows"
	case OpVisible:
		return "visible"
	case OpMerge:
		return "merge"
	case OpHello:
		return "hello"
	case OpSnapshotEpoch:
		return "snapshot_epoch"
	case OpSubscribe:
		return "subscribe"
	case OpCreateIndex:
		return "create_index"
	case OpMetrics:
		return "metrics"
	case OpReshard:
		return "reshard"
	default:
		return fmt.Sprintf("op_0x%02x", op)
	}
}

// Opcodes lists every opcode this build knows, in opcode order; the
// server registers one metric series per entry.
func Opcodes() []uint8 {
	ops := make([]uint8, 0, opLast)
	for op := uint8(OpPing); op <= opLast; op++ {
		if !slices.Contains(unassigned[:], op) {
			ops = append(ops, op)
		}
	}
	return ops
}

// Subscribe modes (request and response).  A fresh follower requests
// SubSnapshot; a reconnecting follower requests SubTail with the next LSN
// it needs.  The response echoes the granted mode — a tail request the
// server cannot honor (log trimmed past fromLSN) fails with a normal error
// response instead, since a follower with an existing store cannot absorb
// a second full snapshot.
const (
	SubSnapshot = 0x00 // bootstrap: snapshot image, then ops from the cut
	SubTail     = 0x01 // resume: ops from fromLSN on
)

// Server roles reported by OpHello.
const (
	RolePrimary  = 0x00 // serves writes; streams the op log when enabled
	RoleFollower = 0x01 // read-only replica fed by a primary's op log
)

// Subscribe stream frame kinds.  After the OpSubscribe response, the
// server sends a one-way sequence of frames whose payload starts with a
// kind byte.  In snapshot mode the stream opens with FrameSnapChunk frames
// carrying the snapshot image (internal/persist), terminated by FrameSnapEnd; then (and
// immediately, in tail mode) FrameOps and FrameHeartbeat frames alternate
// for the life of the connection.
const (
	FrameSnapChunk = 0x01 // raw snapshot bytes (bounded chunks)
	FrameSnapEnd   = 0x02 // end of snapshot image
	FrameOps       = 0x03 // u32 n + n encoded ops, consecutive LSNs
	FrameHeartbeat = 0x04 // safe u64, primaryEpoch u64, nextLSN u64
	FrameError     = 0x05 // message string; the subscription is dead
)

// Response status codes.  StatusOK precedes a result body; every other
// code precedes a message string.  The codes mirror the library's typed
// errors so the client can rehydrate them.
const (
	StatusOK             = 0x00
	StatusErr            = 0x01 // untyped server-side failure
	StatusErrRowRange    = 0x02 // table.ErrRowRange
	StatusErrRowInvalid  = 0x03 // table.ErrRowInvalid
	StatusErrNoColumn    = 0x04 // table.ErrNoColumn
	StatusErrArity       = 0x05 // table.ErrArity
	StatusErrMergeBusy   = 0x06 // table.ErrMergeInProgress
	StatusErrBadSnapshot = 0x07 // epoch not servable exactly (table.ErrReclaimed), or not pinned for release
	StatusErrBadRequest  = 0x08 // malformed frame, unknown op, bad tag
	StatusErrColumnType  = 0x09 // value/op does not fit the column type
	// StatusErrTooManySnapshots: the server's snapshot registry is at its
	// configured capacity; release a snapshot before capturing another.
	StatusErrTooManySnapshots = 0x0a
	// StatusErrReadOnly: the server is a replication follower; mutations
	// must go to the primary.
	StatusErrReadOnly = 0x0b
)

// Value type tags.
const (
	TagUint32 = 0x00
	TagUint64 = 0x01
	TagString = 0x02
)

// Filter ops.
const (
	OpFilterEq      = 0x00
	OpFilterBetween = 0x01
)

// ErrFrameTooLarge is returned for frames exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrMalformed is returned when a payload fails to decode.
var ErrMalformed = errors.New("wire: malformed payload")

// readStep caps how much frame payload is allocated and read at once, so
// a header claiming a near-MaxFrame length pins memory only as fast as
// the peer actually delivers bytes — a silent connection costs one step,
// not 16 MiB.
const readStep = 256 << 10

// ReadFrame reads one length-prefixed frame payload.  It returns
// ErrFrameTooLarge for oversized frames (the stream is then poisoned:
// the payload was not consumed) and io.EOF cleanly at end of stream.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, 0, min(n, readStep))
	for len(buf) < n {
		step := min(n-len(buf), readStep)
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Buffer accumulates an outgoing payload.
type Buffer struct {
	b []byte
}

// Bytes returns the accumulated payload.
func (b *Buffer) Bytes() []byte { return b.b }

// Reset clears the buffer for reuse.
func (b *Buffer) Reset() { b.b = b.b[:0] }

// U8 appends a byte.
func (b *Buffer) U8(v uint8) { b.b = append(b.b, v) }

// U16 appends a big-endian uint16.
func (b *Buffer) U16(v uint16) { b.b = binary.BigEndian.AppendUint16(b.b, v) }

// U32 appends a big-endian uint32.
func (b *Buffer) U32(v uint32) { b.b = binary.BigEndian.AppendUint32(b.b, v) }

// U64 appends a big-endian uint64.
func (b *Buffer) U64(v uint64) { b.b = binary.BigEndian.AppendUint64(b.b, v) }

// String appends a length-prefixed string.
func (b *Buffer) String(s string) {
	b.U32(uint32(len(s)))
	b.b = append(b.b, s...)
}

// Value appends a tagged value.  Supported Go types: uint32, uint64 and
// string; anything else returns an error (the caller coerces first).
func (b *Buffer) Value(v any) error {
	switch x := v.(type) {
	case uint32:
		b.U8(TagUint32)
		b.U32(x)
	case uint64:
		b.U8(TagUint64)
		b.U64(x)
	case string:
		b.U8(TagString)
		b.String(x)
	default:
		return fmt.Errorf("%w: unsupported value type %T", ErrMalformed, v)
	}
	return nil
}

// Row appends a column-counted row of values.
func (b *Buffer) Row(values []any) error {
	if len(values) > 0xffff {
		return fmt.Errorf("%w: %d values in one row", ErrMalformed, len(values))
	}
	b.U16(uint16(len(values)))
	for _, v := range values {
		if err := b.Value(v); err != nil {
			return err
		}
	}
	return nil
}

// RowIDs appends a count-prefixed row id list.
func (b *Buffer) RowIDs(ids []int) {
	b.U32(uint32(len(ids)))
	for _, id := range ids {
		b.U64(uint64(id))
	}
}

// Reader decodes a payload with strict bounds checking: every read that
// would run past the payload returns ErrMalformed, and count-prefixed
// allocations are capped by the bytes actually remaining, so a hostile
// length can never force an over-allocation.
type Reader struct {
	b []byte
	i int
}

// NewReader wraps a payload for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Len returns the number of undecoded bytes.
func (r *Reader) Len() int { return len(r.b) - r.i }

// Rest returns an error unless the payload was fully consumed: trailing
// garbage on a request is rejected rather than ignored.
func (r *Reader) Rest() error {
	if r.i != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b)-r.i)
	}
	return nil
}

func (r *Reader) take(n int) ([]byte, error) {
	if n < 0 || r.Len() < n {
		return nil, fmt.Errorf("%w: need %d bytes, have %d", ErrMalformed, n, r.Len())
	}
	out := r.b[r.i : r.i+n]
	r.i += n
	return out, nil
}

// U8 decodes one byte.
func (r *Reader) U8() (uint8, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// U16 decodes a big-endian uint16.
func (r *Reader) U16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

// U32 decodes a big-endian uint32.
func (r *Reader) U32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// U64 decodes a big-endian uint64.
func (r *Reader) U64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// String decodes a length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.U32()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Value decodes one tagged value into its Go representation.
func (r *Reader) Value() (any, error) {
	tag, err := r.U8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case TagUint32:
		return r.U32()
	case TagUint64:
		return r.U64()
	case TagString:
		return r.String()
	default:
		return nil, fmt.Errorf("%w: unknown value tag 0x%02x", ErrMalformed, tag)
	}
}

// Row decodes a column-counted row.
func (r *Reader) Row() ([]any, error) {
	n, err := r.U16()
	if err != nil {
		return nil, err
	}
	// A value is at least 2 bytes (tag + shortest payload is a 4-byte
	// scalar, but a zero-length string is 5; 2 is a safe floor).
	if int(n) > r.Len() {
		return nil, fmt.Errorf("%w: row claims %d values, %d bytes left", ErrMalformed, n, r.Len())
	}
	values := make([]any, n)
	for i := range values {
		if values[i], err = r.Value(); err != nil {
			return nil, err
		}
	}
	return values, nil
}

// RowIDs decodes a count-prefixed row id list.
func (r *Reader) RowIDs() ([]int, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int(n) > r.Len()/8 {
		return nil, fmt.Errorf("%w: %d row ids in %d bytes", ErrMalformed, n, r.Len())
	}
	ids := make([]int, n)
	for i := range ids {
		v, err := r.U64()
		if err != nil {
			return nil, err
		}
		ids[i] = int(v)
	}
	return ids, nil
}

// Filter is the wire form of one conjunctive predicate.
type Filter struct {
	Column string
	Op     uint8 // OpFilterEq or OpFilterBetween
	Value  any
	Hi     any // set for OpFilterBetween
}

// Filters appends a count-prefixed predicate list.
func (b *Buffer) Filters(fs []Filter) error {
	if len(fs) > 0xff {
		return fmt.Errorf("%w: %d filters", ErrMalformed, len(fs))
	}
	b.U8(uint8(len(fs)))
	for _, f := range fs {
		b.String(f.Column)
		b.U8(f.Op)
		if err := b.Value(f.Value); err != nil {
			return err
		}
		if f.Op == OpFilterBetween {
			if err := b.Value(f.Hi); err != nil {
				return err
			}
		}
	}
	return nil
}

// Filters decodes a predicate list.
func (r *Reader) Filters() ([]Filter, error) {
	n, err := r.U8()
	if err != nil {
		return nil, err
	}
	fs := make([]Filter, n)
	for i := range fs {
		if fs[i].Column, err = r.String(); err != nil {
			return nil, err
		}
		if fs[i].Op, err = r.U8(); err != nil {
			return nil, err
		}
		if fs[i].Op != OpFilterEq && fs[i].Op != OpFilterBetween {
			return nil, fmt.Errorf("%w: unknown filter op 0x%02x", ErrMalformed, fs[i].Op)
		}
		if fs[i].Value, err = r.Value(); err != nil {
			return nil, err
		}
		if fs[i].Op == OpFilterBetween {
			if fs[i].Hi, err = r.Value(); err != nil {
				return nil, err
			}
		}
	}
	return fs, nil
}

// Strings appends a u16-counted string list (projections, column names).
func (b *Buffer) Strings(ss []string) error {
	if len(ss) > 0xffff {
		return fmt.Errorf("%w: %d strings", ErrMalformed, len(ss))
	}
	b.U16(uint16(len(ss)))
	for _, s := range ss {
		b.String(s)
	}
	return nil
}

// Strings decodes a u16-counted string list.
func (r *Reader) Strings() ([]string, error) {
	n, err := r.U16()
	if err != nil {
		return nil, err
	}
	if int(n) > r.Len() {
		return nil, fmt.Errorf("%w: %d strings in %d bytes", ErrMalformed, n, r.Len())
	}
	if n == 0 {
		return nil, nil
	}
	ss := make([]string, n)
	for i := range ss {
		if ss[i], err = r.String(); err != nil {
			return nil, err
		}
	}
	return ss, nil
}
