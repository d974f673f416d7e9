package server

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"hyrise/internal/shard"
	"hyrise/internal/table"
	"hyrise/internal/wire"
)

// reqInfo collects per-request observability facts as a handler runs:
// the slow-op log line reports them next to the opcode and duration.
// Methods are nil-safe so handlers never need to know whether tracing is
// on (the fuzz harness passes nil).
type reqInfo struct {
	rows  int    // rows touched or returned, best-effort per op
	epoch uint64 // resolved snapshot epoch (0 = latest or none)
}

func (i *reqInfo) noteRows(n int) {
	if i != nil {
		i.rows = n
	}
}

func (i *reqInfo) noteView(v table.View) {
	if i != nil && !v.IsLatest() {
		i.epoch = v.Epoch()
	}
}

// handle decodes and executes one request, writing the full response
// payload (status byte first) into out.  Malformed payloads become error
// responses, never session faults: framing is length-delimited, so the
// stream stays in sync regardless of payload content.  info (nil-safe)
// receives per-request facts for the slow-op log.
func (s *Server) handle(payload []byte, out *wire.Buffer, info *reqInfo) {
	r := wire.NewReader(payload)
	op, err := r.U8()
	if err != nil {
		s.fail(out, fmt.Errorf("%w: empty request", wire.ErrMalformed))
		return
	}
	if s.opts.Replica != nil {
		switch op {
		case wire.OpInsert, wire.OpInsertBatch, wire.OpUpdate, wire.OpDelete, wire.OpReshard:
			s.fail(out, fmt.Errorf("%w: route writes to the primary", errReadOnly))
			return
		}
	}
	out.U8(wire.StatusOK)
	switch op {
	case wire.OpPing:
		err = r.Rest()
	case wire.OpSchema:
		err = s.opSchema(r, out)
	case wire.OpInsert:
		err = s.opInsert(r, out)
	case wire.OpInsertBatch:
		err = s.opInsertBatch(r, out)
	case wire.OpUpdate:
		err = s.opUpdate(r, out)
	case wire.OpDelete:
		err = s.opDelete(r, out)
	case wire.OpRow:
		err = s.opRow(r, out)
	case wire.OpIsValid:
		err = s.opIsValid(r, out)
	case wire.OpSnapshotEpoch:
		if err = r.Rest(); err == nil {
			var e uint64
			if e, err = s.registerSnapshot(); err == nil {
				out.U64(e)
			}
		}
	case wire.OpHello:
		err = s.opHello(r, out)
	case wire.OpSubscribe:
		// serveConn intercepts OpSubscribe before handle; seeing it here
		// means the caller cannot stream (fuzz harness, misuse).
		err = fmt.Errorf("%w: OpSubscribe must be the only request on its connection", wire.ErrMalformed)
	case wire.OpSnapshotRelease:
		err = s.opSnapshotRelease(r, out)
	case wire.OpLookup, wire.OpRange, wire.OpCountEqual:
		err = s.opFilter(op, r, out, info)
	case wire.OpScan:
		err = s.opScan(r, out, info)
	case wire.OpSum, wire.OpMin, wire.OpMax:
		err = s.opAggregate(op, r, out, info)
	case wire.OpQuery:
		err = s.opQuery(r, out, info)
	case wire.OpValidRows:
		err = s.opValidRows(r, out)
	case wire.OpVisible:
		err = s.opVisible(r, out)
	case wire.OpMerge:
		err = s.opMerge(r, out)
	case wire.OpCreateIndex:
		err = s.opCreateIndex(r, out)
	case wire.OpMetrics:
		err = s.opMetrics(r, out)
	case wire.OpReshard:
		err = s.opReshard(r, out)
	default:
		err = fmt.Errorf("%w: unknown opcode 0x%02x", wire.ErrMalformed, op)
	}
	if err != nil {
		s.fail(out, err)
	}
}

// fail rewrites out as an error response.
func (s *Server) fail(out *wire.Buffer, err error) {
	out.Reset()
	out.U8(statusOf(err))
	out.String(err.Error())
}

// statusOf maps library errors to wire status codes so the client can
// rehydrate them as typed errors.
func statusOf(err error) uint8 {
	switch {
	case errors.Is(err, table.ErrRowRange):
		return wire.StatusErrRowRange
	case errors.Is(err, table.ErrRowInvalid):
		return wire.StatusErrRowInvalid
	case errors.Is(err, table.ErrNoColumn):
		return wire.StatusErrNoColumn
	case errors.Is(err, table.ErrArity):
		return wire.StatusErrArity
	case errors.Is(err, table.ErrMergeInProgress):
		return wire.StatusErrMergeBusy
	case errors.Is(err, errBadSnapshot), errors.Is(err, table.ErrReclaimed):
		return wire.StatusErrBadSnapshot
	case errors.Is(err, errReadOnly):
		return wire.StatusErrReadOnly
	case errors.Is(err, errTooManySnapshots):
		return wire.StatusErrTooManySnapshots
	case errors.Is(err, table.ErrColumnType):
		return wire.StatusErrColumnType
	case errors.Is(err, wire.ErrMalformed):
		return wire.StatusErrBadRequest
	default:
		return wire.StatusErr
	}
}

// --- mutation ops ---

func (s *Server) opInsert(r *wire.Reader, out *wire.Buffer) error {
	values, err := r.Row()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	id, err := s.st.Insert(values)
	if err != nil {
		return err
	}
	out.U64(uint64(id))
	return nil
}

func (s *Server) opInsertBatch(r *wire.Reader, out *wire.Buffer) error {
	n, err := r.U32()
	if err != nil {
		return err
	}
	if int(n) > r.Len()/2 {
		return fmt.Errorf("%w: batch claims %d rows in %d bytes", wire.ErrMalformed, n, r.Len())
	}
	rows := make([][]any, n)
	for i := range rows {
		if rows[i], err = r.Row(); err != nil {
			return err
		}
	}
	if err := r.Rest(); err != nil {
		return err
	}
	ids, err := s.st.InsertRows(rows)
	if err != nil {
		return err
	}
	out.RowIDs(ids)
	return nil
}

func (s *Server) opUpdate(r *wire.Reader, out *wire.Buffer) error {
	row, err := r.U64()
	if err != nil {
		return err
	}
	n, err := r.U16()
	if err != nil {
		return err
	}
	changes := make(map[string]any, n)
	for i := 0; i < int(n); i++ {
		col, err := r.String()
		if err != nil {
			return err
		}
		v, err := r.Value()
		if err != nil {
			return err
		}
		changes[col] = v
	}
	if err := r.Rest(); err != nil {
		return err
	}
	id, err := s.st.Update(int(row), changes)
	if err != nil {
		return err
	}
	out.U64(uint64(id))
	return nil
}

func (s *Server) opDelete(r *wire.Reader, out *wire.Buffer) error {
	row, err := r.U64()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	return s.st.Delete(int(row))
}

// --- row ops ---

func (s *Server) opRow(r *wire.Reader, out *wire.Buffer) error {
	row, err := r.U64()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	values, err := s.st.Row(int(row))
	if err != nil {
		return err
	}
	return out.Row(values)
}

func (s *Server) opIsValid(r *wire.Reader, out *wire.Buffer) error {
	row, err := r.U64()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	out.U8(boolByte(s.st.IsValid(int(row))))
	return nil
}

// --- snapshot ops ---

func (s *Server) opSnapshotRelease(r *wire.Reader, out *wire.Buffer) error {
	e, err := r.U64()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	return s.releaseSnapshot(e)
}

func (s *Server) opValidRows(r *wire.Reader, out *wire.Buffer) error {
	view, err := s.viewArgRest(r)
	if err != nil {
		return err
	}
	sel, err := shard.Read(s.st, view, table.Plan{Reduce: table.Count})
	if err != nil {
		return err
	}
	out.U64(uint64(sel.Count))
	return nil
}

func (s *Server) opVisible(r *wire.Reader, out *wire.Buffer) error {
	e, err := r.U64()
	if err != nil {
		return err
	}
	row, err := r.U64()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	view, err := s.viewFor(e)
	if err != nil {
		return err
	}
	ok, err := s.st.VisibleAt(view, int(row))
	out.U8(boolByte(ok))
	return err
}

// viewArgRest decodes a trailing read-epoch argument.
func (s *Server) viewArgRest(r *wire.Reader) (table.View, error) {
	e, err := r.U64()
	if err != nil {
		return table.View{}, err
	}
	if err := r.Rest(); err != nil {
		return table.View{}, err
	}
	return s.viewFor(e)
}

// --- single-column read ops ---

// readArgs decodes the (epoch, column) prefix of a single-column read
// request into its view and the column's position.
func (s *Server) readArgs(r *wire.Reader, info *reqInfo) (table.View, int, error) {
	e, err := r.U64()
	if err != nil {
		return table.View{}, 0, err
	}
	col, err := r.String()
	if err != nil {
		return table.View{}, 0, err
	}
	view, err := s.viewFor(e)
	if err != nil {
		return table.View{}, 0, err
	}
	ci, err := s.st.Schema().Index(col)
	if err != nil {
		return table.View{}, 0, err
	}
	info.noteView(view)
	return view, ci, nil
}

// opFilter answers OpLookup and OpCountEqual (one value) and OpRange (lo,
// hi) as a one-predicate plan: the matching row ids, or their count.
func (s *Server) opFilter(op uint8, r *wire.Reader, out *wire.Buffer, info *reqInfo) error {
	view, col, err := s.readArgs(r, info)
	if err != nil {
		return err
	}
	pred := table.Pred{Col: col, Range: op == wire.OpRange}
	if pred.Lo, err = r.Value(); err != nil {
		return err
	}
	if pred.Range {
		if pred.Hi, err = r.Value(); err != nil {
			return err
		}
	}
	if err := r.Rest(); err != nil {
		return err
	}
	p := table.Plan{Preds: []table.Pred{pred}}
	if op == wire.OpCountEqual {
		p.Reduce = table.Count
	}
	sel, err := shard.Read(s.st, view, p)
	if err != nil {
		return err
	}
	if op == wire.OpCountEqual {
		info.noteRows(sel.Count)
		out.U64(uint64(sel.Count))
		return nil
	}
	info.noteRows(len(sel.Rows))
	out.RowIDs(sel.Rows)
	return nil
}

// opScan answers the column's visible rows, up to the limit, as one plan
// projecting the column and, for withRows, every column: the full rows are
// the versions the scan saw, read in its lock hold at its one epoch.
func (s *Server) opScan(r *wire.Reader, out *wire.Buffer, info *reqInfo) error {
	view, col, err := s.readArgs(r, info)
	if err != nil {
		return err
	}
	limit, err := r.U32()
	if err != nil {
		return err
	}
	withRows, err := r.U8()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	p := table.Plan{Project: []int{col}, Limit: int(limit)}
	if withRows != 0 {
		for i := range s.st.Schema() {
			p.Project = append(p.Project, i)
		}
	}
	sel, err := shard.Read(s.st, view, p)
	if err != nil {
		return err
	}
	info.noteRows(len(sel.Rows))
	out.U32(uint32(len(sel.Rows)))
	for i, id := range sel.Rows {
		out.U64(uint64(id))
		if err := out.Value(sel.Values[i][0]); err != nil {
			return err
		}
	}
	if withRows != 0 {
		for _, vals := range sel.Values {
			if err := out.Row(vals[1:]); err != nil {
				return err
			}
		}
	}
	return nil
}

// opAggregate answers OpSum, OpMin and OpMax as a Sum or MinMax plan; an
// extreme goes on the wire in the column's own type.  A column that does
// not aggregate fails with table.ErrColumnType.
func (s *Server) opAggregate(op uint8, r *wire.Reader, out *wire.Buffer, info *reqInfo) error {
	view, col, err := s.readArgs(r, info)
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	p := table.Plan{Reduce: table.MinMax, Col: col}
	if op == wire.OpSum {
		p.Reduce = table.Sum
	}
	sel, err := shard.Read(s.st, view, p)
	if err != nil {
		return err
	}
	if op == wire.OpSum {
		out.U64(sel.Sum)
		return nil
	}
	x := sel.Min
	if op == wire.OpMax {
		x = sel.Max
	}
	v, _ := table.Convert(s.st.Schema()[col].Type, x) // the column's own value
	out.U8(boolByte(sel.Found))
	return out.Value(v)
}

// --- query op ---

func (s *Server) opQuery(r *wire.Reader, out *wire.Buffer, info *reqInfo) error {
	e, err := r.U64()
	if err != nil {
		return err
	}
	wfs, err := r.Filters()
	if err != nil {
		return err
	}
	project, err := r.Strings()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	view, err := s.viewFor(e)
	if err != nil {
		return err
	}
	info.noteView(view)
	filters := make([]table.Filter, len(wfs))
	for i, f := range wfs {
		filters[i] = table.Filter{Column: f.Column, Value: f.Value, Hi: f.Hi}
		if f.Op == wire.OpFilterBetween {
			filters[i].Op = table.Between
		}
	}
	p, err := s.st.Schema().Plan(filters, project)
	if err != nil {
		return err
	}
	sel, err := shard.Read(s.st, view, p)
	if err != nil {
		return err
	}
	s.mx.observeQuery(sel)
	info.noteRows(len(sel.Rows))
	out.RowIDs(sel.Rows)
	if err := out.Strings(project); err != nil {
		return err
	}
	for _, vals := range sel.Values {
		for _, v := range vals {
			if err := out.Value(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- metadata ops ---

func (s *Server) opSchema(r *wire.Reader, out *wire.Buffer) error {
	if err := r.Rest(); err != nil {
		return err
	}
	out.String(s.st.Name())
	out.String(s.st.KeyColumn())
	schema := s.st.Schema()
	out.U16(uint16(len(schema)))
	for _, def := range schema {
		out.String(def.Name)
		out.U8(uint8(def.Type))
	}
	return nil
}

// opCreateIndex is deliberately allowed on followers: an index is a local
// read optimization, not a data mutation, and followers serve exactly the
// selective reads indexes accelerate.
func (s *Server) opCreateIndex(r *wire.Reader, out *wire.Buffer) error {
	col, err := r.String()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	return s.st.CreateIndex(col)
}

// opMerge runs the store's merge with the requested thread budget clamped
// to GOMAXPROCS (see "Merge" in the package doc).
func (s *Server) opMerge(r *wire.Reader, out *wire.Buffer) error {
	threads, err := r.U32()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	opts := table.MergeOptions{Threads: min(int(threads), runtime.GOMAXPROCS(0))}
	// Under the server's lifetime context: a force-close (Close, or a
	// Shutdown past its deadline) cancels the merge, which rolls back
	// cleanly, instead of the session outliving the force-close.
	rep, err := s.st.RequestMerge(s.lifeCtx, opts)
	if err != nil {
		return err
	}
	out.U64(uint64(rep.RowsMerged))
	out.U64(uint64(rep.RowsReclaimed))
	out.U64(uint64(rep.MainRowsAfter))
	out.U64(uint64(rep.Wall.Nanoseconds()))
	out.U32(uint32(rep.Threads))
	out.U8(boolByte(rep.Aborted))
	return nil
}

// --- replication / capability ops ---

// opHello refuses a client built from a different protocol: there is one
// generation, and answering a mismatched peer would only defer the failure
// to the first frame the two sides lay out differently.
func (s *Server) opHello(r *wire.Reader, out *wire.Buffer) error {
	ver, err := r.U32()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	if err := checkVersion(ver); err != nil {
		return err
	}
	out.U32(wire.ProtocolVersion)
	out.U8(s.role())
	return nil
}

// checkVersion refuses a peer built from another protocol generation; it
// guards both handshakes a peer opens with, OpHello and OpSubscribe.
func checkVersion(ver uint32) error {
	if ver != wire.ProtocolVersion {
		return fmt.Errorf("%w: client speaks protocol version %d, this server %d",
			wire.ErrMalformed, ver, wire.ProtocolVersion)
	}
	return nil
}

// opReshard changes the store's active shard count online: reads at any
// epoch and concurrent writes keep working throughout, and the migration
// flows through the op log so followers replay it bit-identically.
// Followers answer read-only (the reshard reaches them through
// replication).  The response reports the migration so clients can surface
// it without a second round-trip.
func (s *Server) opReshard(r *wire.Reader, out *wire.Buffer) error {
	n, err := r.U32()
	if err != nil {
		return err
	}
	if err := r.Rest(); err != nil {
		return err
	}
	// Under lifeCtx like merges: a force-close aborts the migration pass
	// instead of the session outliving the server (the cutover still
	// publishes — the store stays consistent, just lazily drained).
	rep, err := s.st.Reshard(s.lifeCtx, int(n))
	if err != nil {
		return err
	}
	s.mx.observeReshard(rep)
	out.U32(uint32(rep.From))
	out.U32(uint32(rep.To))
	out.U64(uint64(rep.RowsMigrated))
	out.U64(uint64(rep.Wall.Nanoseconds()))
	out.U64(uint64(rep.CutoverWall.Nanoseconds()))
	out.U64(rep.Version)
	out.U64(rep.CutoverEpoch)
	return nil
}

// opMetrics answers with a flat snapshot of the server's metric registry:
// u32 n, then per sample a full name (labels rendered in, e.g.
// `hyrise_server_requests_total{op="lookup"}`) and the value as float64
// bits.  Followers answer locally — their lag gauges are exactly what a
// client-side topology check wants.
func (s *Server) opMetrics(r *wire.Reader, out *wire.Buffer) error {
	if err := r.Rest(); err != nil {
		return err
	}
	samples := s.mx.reg.Snapshot()
	out.U32(uint32(len(samples)))
	for _, smp := range samples {
		out.String(smp.Name)
		out.U64(math.Float64bits(smp.Value))
	}
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
