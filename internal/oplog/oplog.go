// Package oplog implements the primary's replication log: an in-memory,
// epoch-stamped record of every logical mutation (insert, update, delete,
// cross-shard move), in the exact order the store applied them.
//
// # Stamping
//
// The log is the stamping point of the write path.  A table that has a log
// attached does not read its epoch stamp from the clock directly; it calls
// Append while holding its write mutex, and Append — under the log mutex —
// reads the clock once and stamps the whole batch with it.  Two properties
// follow:
//
//   - The log is totally ordered and epoch-monotonic: op N+1's epoch is >=
//     op N's, because stamps are read under one mutex in append order.
//   - Replay is bit-identical: a follower that re-executes the ops with
//     their recorded stamps rebuilds the same row ids and the same
//     begin/end epochs, so *At reads on the follower return exactly what
//     the primary returns at the same epoch.
//
// # Safe epoch
//
// SafeEpoch returns the highest epoch E such that every mutation stamped
// <= E is already in the log: since any later Append stamps >= Now(),
// that is Now()-1.  The streaming server forwards it to followers as a
// heartbeat only when they have consumed the whole log, which is what
// lets a follower's applied epoch advance past write-quiet periods.
//
// # Retention
//
// The log retains a bounded number of ops (Cap); older entries are
// trimmed as new ones arrive.  A subscriber that has fallen behind the
// first retained LSN must re-bootstrap from a snapshot.
package oplog

import (
	"fmt"
	"sync"

	"hyrise/internal/epoch"
	"hyrise/internal/wire"
)

// Kind identifies the mutation an op replays.
type Kind uint8

const (
	KindInsert Kind = 0x01 // Rows appended starting at id ID
	KindUpdate Kind = 0x02 // version ID invalidated, Rows[0] appended as ID2
	KindDelete Kind = 0x03 // version ID invalidated
	KindMove   Kind = 0x04 // ID invalidated on Shard, Rows[0] appended as ID2 on Dst
	// KindReshardBegin opens an online reshard: ID new partitions exist
	// from physical index Shard on, and subsequent ops may target them.
	// ID2 carries the migrating shard-map version.  Appended BEFORE the
	// primary routes any write to the new partitions, so a follower
	// replaying in LSN order always creates them first.
	KindReshardBegin Kind = 0x05
	// KindReshardCutover atomically publishes the post-reshard routing:
	// the active window becomes the ID partitions from physical index
	// Shard, shard-map version ID2.  Its epoch stamp is the cutover epoch.
	KindReshardCutover Kind = 0x06
)

func (k Kind) valid() bool { return k >= KindInsert && k <= KindReshardCutover }

// String names the kind for logs and errors.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindUpdate:
		return "update"
	case KindDelete:
		return "delete"
	case KindMove:
		return "move"
	case KindReshardBegin:
		return "reshard-begin"
	case KindReshardCutover:
		return "reshard-cutover"
	}
	return fmt.Sprintf("kind(0x%02x)", uint8(k))
}

// Op is one logged mutation.  Values in Rows are canonical storage types
// (uint32, uint64, string — what table.Convert returns), so they encode
// on the wire without coercion and replay into identical column data.
type Op struct {
	LSN   uint64 // position in the log, consecutive from 0
	Epoch uint64 // the stamp the primary wrote into its epoch columns
	Kind  Kind
	Shard uint32  // physical partition the op applies to
	Dst   uint32  // KindMove: destination partition
	ID    uint64  // insert: first new id; update/delete/move: old version's id
	ID2   uint64  // update/move: the new version's id
	Rows  [][]any // insert: batch rows; update/move: the new version's values
}

// Rec is an op before the log assigns its LSN and epoch.
type Rec struct {
	Kind    Kind
	Shard   uint32
	Dst     uint32
	ID, ID2 uint64
	Rows    [][]any
}

// DefaultCap is the default number of retained ops.
const DefaultCap = 1 << 20

// Log is the primary's bounded in-memory op log.  Safe for concurrent use.
type Log struct {
	clock *epoch.Clock
	cap   int

	mu     sync.Mutex
	ops    []Op
	first  uint64 // LSN of ops[0]
	next   uint64 // LSN the next appended op receives
	notify chan struct{}
}

// New returns an empty log stamped by clock, retaining at most cap ops
// (DefaultCap if cap <= 0).
func New(clock *epoch.Clock, cap int) *Log {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Log{clock: clock, cap: cap}
}

// Clock returns the stamping clock (tables verify it matches their own).
func (l *Log) Clock() *epoch.Clock { return l.clock }

// Cap returns the retention capacity in ops.
func (l *Log) Cap() int { return l.cap }

// Append stamps every rec with the current epoch — read once under the log
// mutex — assigns consecutive LSNs, appends, and returns the stamp.  The
// caller must hold the write lock of every table the recs mutate, so that
// the log order equals the apply order and a snapshot cut (which takes the
// read lock) includes every op appended before it.
func (l *Log) Append(recs []Rec) uint64 {
	l.mu.Lock()
	at := l.clock.Now()
	for i := range recs {
		r := &recs[i]
		l.ops = append(l.ops, Op{
			LSN: l.next, Epoch: at, Kind: r.Kind,
			Shard: r.Shard, Dst: r.Dst, ID: r.ID, ID2: r.ID2, Rows: r.Rows,
		})
		l.next++
	}
	if over := len(l.ops) - l.cap; over > 0 {
		rest := copy(l.ops, l.ops[over:])
		for i := rest; i < len(l.ops); i++ {
			l.ops[i] = Op{} // release row references
		}
		l.ops = l.ops[:rest]
		l.first += uint64(over)
	}
	ch := l.notify
	l.notify = nil
	l.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	return at
}

// Notify returns a channel closed at the next Append.  Obtain the channel
// before checking the log for new ops to avoid missing a wakeup.
func (l *Log) Notify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return l.notify
}

// Wake closes the current Notify channel without appending anything,
// nudging subscribers to recompute SafeEpoch.  The server calls it after
// an epoch capture so caught-up followers learn the new safe epoch from
// an immediate heartbeat instead of the next idle tick.
func (l *Log) Wake() {
	l.mu.Lock()
	ch := l.notify
	l.notify = nil
	l.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// Bounds returns the first retained LSN and the next LSN to be assigned;
// the retained ops are [first, next).
func (l *Log) Bounds() (first, next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first, l.next
}

// NextLSN returns the LSN the next appended op will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Len returns the number of retained ops.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// SafeEpoch returns (safe, now, next): the highest epoch all of whose
// mutations are in the log, the clock's current epoch, and the next LSN.
// All three are read atomically with respect to Append.
func (l *Log) SafeEpoch() (safe, now, next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now = l.clock.Now()
	return now - 1, now, l.next
}

// ReadFrom copies out up to max ops starting at LSN from.  ok is false
// when from precedes the first retained LSN (the caller must
// re-bootstrap).  Ops and their rows are immutable once appended, so the
// returned slice is safe to use without the lock.
func (l *Log) ReadFrom(from uint64, max int) (ops []Op, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.first {
		return nil, false
	}
	if from >= l.next {
		return nil, true
	}
	i := int(from - l.first)
	n := min(len(l.ops)-i, max)
	return append([]Op(nil), l.ops[i:i+n]...), true
}

// EncodeInto appends the op's wire encoding to b.
func (o *Op) EncodeInto(b *wire.Buffer) error {
	b.U64(o.LSN)
	b.U64(o.Epoch)
	b.U8(uint8(o.Kind))
	b.U32(o.Shard)
	b.U32(o.Dst)
	b.U64(o.ID)
	b.U64(o.ID2)
	b.U32(uint32(len(o.Rows)))
	for _, row := range o.Rows {
		if err := b.Row(row); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads one op, validating the kind and its row-count shape:
// inserts carry >= 1 rows, updates and moves exactly 1, deletes 0.
// Hostile counts are bounds-checked against the remaining payload.
func Decode(r *wire.Reader) (Op, error) {
	var o Op
	var err error
	if o.LSN, err = r.U64(); err != nil {
		return o, err
	}
	if o.Epoch, err = r.U64(); err != nil {
		return o, err
	}
	k, err := r.U8()
	if err != nil {
		return o, err
	}
	o.Kind = Kind(k)
	if !o.Kind.valid() {
		return o, fmt.Errorf("%w: unknown op kind 0x%02x", wire.ErrMalformed, k)
	}
	if o.Shard, err = r.U32(); err != nil {
		return o, err
	}
	if o.Dst, err = r.U32(); err != nil {
		return o, err
	}
	if o.ID, err = r.U64(); err != nil {
		return o, err
	}
	if o.ID2, err = r.U64(); err != nil {
		return o, err
	}
	n, err := r.U32()
	if err != nil {
		return o, err
	}
	// A row is at least 2 bytes (its u16 column count).
	if int(n) > r.Len()/2 {
		return o, fmt.Errorf("%w: op claims %d rows in %d bytes", wire.ErrMalformed, n, r.Len())
	}
	switch o.Kind {
	case KindInsert:
		if n == 0 {
			return o, fmt.Errorf("%w: insert op with no rows", wire.ErrMalformed)
		}
	case KindUpdate, KindMove:
		if n != 1 {
			return o, fmt.Errorf("%w: %s op with %d rows", wire.ErrMalformed, o.Kind, n)
		}
	case KindDelete, KindReshardBegin, KindReshardCutover:
		if n != 0 {
			return o, fmt.Errorf("%w: %s op with %d rows", wire.ErrMalformed, o.Kind, n)
		}
	}
	if n > 0 {
		o.Rows = make([][]any, n)
		for i := range o.Rows {
			if o.Rows[i], err = r.Row(); err != nil {
				return o, err
			}
		}
	}
	return o, nil
}
