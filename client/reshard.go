package client

import (
	"time"

	"hyrise/internal/wire"
)

// ReshardReport describes one completed online reshard, as reported by
// the server.
type ReshardReport struct {
	// From and To are the active shard counts before and after.
	From, To int
	// RowsMigrated counts row versions the migration pass relocated into
	// the new shard window.
	RowsMigrated int
	// Wall is the end-to-end server-side duration; Cutover the atomic
	// routing publish at the end.
	Wall, Cutover time.Duration
	// MapVersion is the shard-map version after cutover; CutoverEpoch the
	// epoch stamped on the cutover op (followers are bit-identical at and
	// after it once they have replayed it).
	MapVersion   uint64
	CutoverEpoch uint64
}

// Reshard changes the served table's active shard count to n, online:
// reads (latest and snapshot) and writes keep working on every connection
// throughout, and replication followers replay the same migration from
// the op log.  It fails with ErrReadOnly on a follower.
func (c *Client) Reshard(n int) (ReshardReport, error) {
	var req wire.Buffer
	req.U8(wire.OpReshard)
	req.U32(uint32(n))
	r, err := c.do(req.Bytes())
	if err != nil {
		return ReshardReport{}, err
	}
	var rep ReshardReport
	from, err := r.U32()
	if err != nil {
		return rep, err
	}
	to, err := r.U32()
	if err != nil {
		return rep, err
	}
	rep.From, rep.To = int(from), int(to)
	migrated, err := r.U64()
	if err != nil {
		return rep, err
	}
	rep.RowsMigrated = int(migrated)
	wallNs, err := r.U64()
	if err != nil {
		return rep, err
	}
	cutNs, err := r.U64()
	if err != nil {
		return rep, err
	}
	rep.Wall = time.Duration(wallNs)
	rep.Cutover = time.Duration(cutNs)
	if rep.MapVersion, err = r.U64(); err != nil {
		return rep, err
	}
	if rep.CutoverEpoch, err = r.U64(); err != nil {
		return rep, err
	}
	return rep, nil
}
