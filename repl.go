package hyrise

import (
	"hyrise/internal/oplog"
	"hyrise/internal/replica"
)

// OpLog is the epoch-stamped operation log feeding replication (see
// internal/oplog).  Obtain one with EnableReplication and hand it to
// Serve via ServerOptions.OpLog so followers can subscribe.
type OpLog = oplog.Log

// Replica is a read-only follower store fed by a primary's op stream
// (see internal/replica).  Obtain one with Follow; serve it with
// ServerOptions.Replica set so the server reports the follower role and
// rejects writes.
type Replica = replica.Replica

// ReplicaOptions configures Follow.
type ReplicaOptions = replica.Options

// EnableReplication attaches a fresh operation log to the store's write
// path and returns it: from here on every insert, update, delete and
// cross-shard move is recorded, stamped with the epoch it committed
// under, and retained for up to cap entries (0 = a default of one
// million).  Call it before the first write reaches the store; attaching
// to a store that already has a log attached fails.
//
// Serving the log is the server's job: pass it in ServerOptions.OpLog
// (or start hyrised with -replicate) and followers subscribe over the
// ordinary listener.
func EnableReplication(t *Table, cap int) (*OpLog, error) {
	l := oplog.New(t.Clock(), cap)
	if err := t.AttachOplog(l); err != nil {
		return nil, err
	}
	return l, nil
}

// Follow bootstraps a read-only follower of the replicating primary at
// addr: it streams the primary's snapshot into a fresh local store,
// applies the op tail, and returns once the first heartbeat makes the
// store exact at some primary epoch.  The replica keeps applying ops —
// and reconnecting through failures — until Close.
//
// FollowStore extracts the local Table; reads on it are exact at
// Replica.AppliedEpoch.  Serve it with ServerOptions.Replica set (or
// start hyrised with -follow) to expose it to network clients.
func Follow(addr string, opts ReplicaOptions) (*Replica, error) {
	return replica.Open(addr, opts)
}

// FollowStore returns the follower-local store a Replica applies the
// primary's ops into.  Its shard layout mirrors the primary's, reshards
// included.
func FollowStore(r *Replica) *Table { return r.Store() }
