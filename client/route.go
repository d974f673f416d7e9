package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hyrise/internal/wire"
)

// Role is a server's replication role, as announced by the hello exchange.
type Role uint8

// Roles.
const (
	RolePrimary  Role = wire.RolePrimary
	RoleFollower Role = wire.RoleFollower
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	default:
		return "unknown"
	}
}

// follower is one read replica the client may route to: a lazily-dialed
// sub-client plus a cached lag measurement.
type follower struct {
	parent *Client
	addr   string

	mu         sync.Mutex
	c          *Client   // nil until first use
	statsAt    time.Time // when lag was measured (zero = never)
	lag        uint64    // epochs behind the primary, as of statsAt
	downTo     time.Time // cooling off after an error
	refreshing bool      // a background stats refresher is running
}

// followerCooldown is how long a follower sits out after an error before
// routing tries it again.
const followerCooldown = time.Second

// client returns the lazily-dialed sub-client.
func (f *follower) client() (*Client, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.c != nil {
		return f.c, nil
	}
	c, err := DialOptions(f.addr, Options{
		Conns:       f.parent.opts.Conns,
		DialTimeout: f.parent.opts.DialTimeout,
	})
	if err != nil {
		return nil, err
	}
	f.c = c
	return c, nil
}

func (f *follower) close() {
	f.mu.Lock()
	c := f.c
	f.c = nil
	f.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (f *follower) available() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Now().After(f.downTo)
}

// markDown benches the follower briefly; the caller has already fallen
// back to the primary, this only stops every request from re-paying the
// failure.  The cached lag measurement is dropped (it predates the
// failure) and a single background refresher keeps re-measuring while
// the follower sits out, so the first read after the cooldown routes on
// fresh stats instead of paying a synchronous measurement — and a
// follower that recovered mid-cooldown is not judged on pre-failure lag.
func (f *follower) markDown() {
	f.mu.Lock()
	f.downTo = time.Now().Add(followerCooldown)
	f.statsAt = time.Time{}
	spawn := !f.refreshing
	f.refreshing = true
	f.mu.Unlock()
	if spawn {
		go f.refreshStats()
	}
}

// refreshStats re-measures the follower's stats in the background until
// its cooldown expires (failed attempts count toward the exit too: if the
// follower stays unreachable, the next routed read re-benches it and
// re-arms a refresher).
func (f *follower) refreshStats() {
	defer func() {
		f.mu.Lock()
		f.refreshing = false
		f.mu.Unlock()
	}()
	for {
		select {
		case <-f.parent.closed:
			return
		case <-time.After(followerCooldown / 4):
		}
		if c, err := f.client(); err == nil {
			if lag, err := lagOf(c); err == nil {
				f.mu.Lock()
				f.lag = lag
				f.statsAt = time.Now()
				f.mu.Unlock()
			}
		}
		select {
		case <-f.parent.closed:
			// The parent closed while we were measuring; drop the
			// sub-client a concurrent Close may have missed.
			f.close()
			return
		default:
		}
		f.mu.Lock()
		done := time.Now().After(f.downTo)
		f.mu.Unlock()
		if done {
			return
		}
	}
}

// currentLag returns the follower's epoch lag behind its primary,
// measuring it over the wire when the cached value is older than statsTTL.
func (f *follower) currentLag() (uint64, error) {
	f.mu.Lock()
	if !f.statsAt.IsZero() && time.Since(f.statsAt) < statsTTL {
		l := f.lag
		f.mu.Unlock()
		return l, nil
	}
	f.mu.Unlock()
	c, err := f.client()
	if err != nil {
		return 0, err
	}
	lag, err := lagOf(c)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	f.lag = lag
	f.statsAt = time.Now()
	f.mu.Unlock()
	return lag, nil
}

// The follower gauges routing reads: primary epoch minus applied epoch,
// and 1 once the follower's applier has stopped for good.
const (
	lagSeries     = "hyrise_replica_lag_epochs"
	stoppedSeries = "hyrise_replica_stopped"
)

// lagOf measures a server's epoch lag from its metrics snapshot.  A server
// whose hello announced the primary role is exact by definition; a
// follower without the lag series cannot be judged, and one that reports
// its applier stopped no longer advances, so neither is routed to.
func lagOf(c *Client) (uint64, error) {
	if c.Role() == RolePrimary {
		return 0, nil
	}
	samples, err := c.Metrics()
	if err != nil {
		return 0, err
	}
	if v, _ := MetricValue(samples, stoppedSeries); v != 0 {
		return 0, fmt.Errorf("client: follower %s reports its replica stopped", c.addr)
	}
	v, ok := MetricValue(samples, lagSeries)
	if !ok {
		return 0, fmt.Errorf("client: follower %s reports no %s", c.addr, lagSeries)
	}
	return uint64(v), nil
}

// doRead sends a read request at snapshot s to a follower that can serve
// it, else to the primary.  A follower answers a snapshot read exactly or
// refuses it (ErrBadSnapshot: an epoch it has not applied or its GC has
// passed); any follower failure falls back to the primary, which holds
// the snapshot's pin, and benches the follower, so a refused snapshot
// costs at most one wasted round trip per cooldown.
func (c *Client) doRead(req []byte, s Snap) (*wire.Reader, error) {
	if len(c.followers) == 0 {
		return c.do(req)
	}
	start := int(atomic.AddUint64(&c.rr, 1))
	for i := 0; i < len(c.followers); i++ {
		f := c.followers[(start+i)%len(c.followers)]
		if !f.available() {
			continue
		}
		r, err := c.tryFollower(f, req, s)
		if err == nil {
			return r, nil
		}
		if !errors.Is(err, errStale) {
			// Staleness clears by itself within a heartbeat; real
			// failures bench the follower for a cooldown.
			f.markDown()
		}
	}
	return c.do(req)
}

// tryFollower attempts one read on one follower: a snapshot read as is, a
// latest read only while the follower's lag is within MaxStaleness.
func (c *Client) tryFollower(f *follower, req []byte, s Snap) (*wire.Reader, error) {
	if s == Latest {
		lag, err := f.currentLag()
		if err != nil {
			return nil, err
		}
		if lag > c.opts.MaxStaleness {
			return nil, errStale
		}
	}
	fc, err := f.client()
	if err != nil {
		return nil, err
	}
	return fc.do(req)
}

// errStale marks a follower too far behind for a latest read; it only
// travels from tryFollower to doRead.
var errStale = errors.New("client: follower too stale")
