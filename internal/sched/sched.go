// Package sched implements merge scheduling (paper §3, §9): a background
// supervisor that triggers the merge process when the delta partition
// exceeds a configured fraction of the main partition, with the two
// resource strategies the paper names — merging with all available
// resources, or constantly merging in the background with minimal resource
// use — plus pause/resume control.
package sched

import (
	"context"
	"errors"
	"sync"
	"time"

	"hyrise/internal/core"
	"hyrise/internal/table"
)

// MergeTable is the surface the scheduler supervises: anything exposing
// the delta/main tuple counts the trigger condition reads, the row counts
// MergeNow uses to spot garbage-collectable history, and an online merge.
// Every partition of a store (*table.Table) satisfies it; Multi supervises
// all of a store's partitions.
type MergeTable interface {
	DeltaRows() int
	MainRows() int
	Rows() int
	ValidRows() int
	GCEnabled() bool
	Merge(context.Context, table.MergeOptions) (table.Report, error)
}

// Strategy is the resource policy of §3.
type Strategy int

const (
	// AllResources merges with every available thread as soon as the
	// trigger fires (paper strategy (a); what the evaluation assumes).
	AllResources Strategy = iota
	// Background merges with a single thread to minimize interference
	// (paper strategy (b)).
	Background
)

// Config tunes the scheduler.
type Config struct {
	// Fraction triggers a merge when N_D > Fraction * N_M (§4).  The
	// paper's Figure 9 experiment uses 0.01; default 0.05.
	Fraction float64
	// MinDeltaRows avoids merging tiny deltas regardless of fraction
	// (small tables merge trivially fast; cf. §2 "Table Size").
	MinDeltaRows int
	// Interval is the polling period.  Default 100ms.
	Interval time.Duration
	// Strategy selects the resource policy.
	Strategy Strategy
	// Threads, when > 0, is an explicit per-merge thread budget that
	// overrides Strategy's implied budget.  NewMulti uses this to hand
	// every shard an even slice of the machine.
	Threads int
	// Algorithm forwards to the merge.
	Algorithm core.Algorithm
	// OnMerge, if non-nil, observes every completed merge.
	OnMerge func(table.Report)
	// OnError, if non-nil, observes merge failures.
	OnError func(error)
}

func (c *Config) setDefaults() {
	if c.Fraction <= 0 {
		c.Fraction = 0.05
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.MinDeltaRows < 0 {
		c.MinDeltaRows = 0
	}
}

// Scheduler supervises one table.  Create with New, then Start.
type Scheduler struct {
	t   MergeTable
	cfg Config

	mu      sync.Mutex
	paused  bool
	cancel  context.CancelFunc
	done    chan struct{}
	merges  int
	lastErr error
}

// New returns a stopped scheduler for one merge target.
func New(t MergeTable, cfg Config) *Scheduler {
	cfg.setDefaults()
	return &Scheduler{t: t, cfg: cfg}
}

// ErrAlreadyRunning is returned by Start when the scheduler is active.
var ErrAlreadyRunning = errors.New("sched: already running")

// Start launches the supervision loop.  Stop it via Stop.
func (s *Scheduler) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		return ErrAlreadyRunning
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan struct{})
	go s.loop(ctx, s.done)
	return nil
}

// Stop terminates the loop and waits for it.  A merge in flight is
// cancelled and rolls back cleanly — its delta rows stay in place and are
// picked up by the next merge (manual or scheduled).
func (s *Scheduler) Stop() {
	s.mu.Lock()
	cancel, done := s.cancel, s.done
	s.cancel = nil
	s.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// Pause suspends triggering; a merge in flight completes.  The paper §3
// notes a scheduler may "pause and resume the merge process" to yield
// resources; we pause at column granularity via Stop/Start of triggering.
func (s *Scheduler) Pause() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = true
}

// Resume re-enables triggering.
func (s *Scheduler) Resume() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = false
}

// Paused reports whether triggering is suspended.
func (s *Scheduler) Paused() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paused
}

// Merges returns the number of merges the scheduler has completed.
func (s *Scheduler) Merges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.merges
}

// LastErr returns the most recent merge error, if any.
func (s *Scheduler) LastErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// MergeNow synchronously merges the target if it holds any delta rows or
// any invalidated versions a garbage-collecting merge could reclaim,
// regardless of the trigger condition, using the scheduler's configured
// thread budget.  It does not require (or disturb) a running supervision
// loop: whole-table merges serialize, so a concurrent scheduled merge
// simply runs first.  Callers use it to drain deltas deliberately — e.g.
// cmd/hyrised compacts on shutdown so the saved snapshot reloads with
// everything merged and reclaimed.
func (s *Scheduler) MergeNow(ctx context.Context) error {
	// With an empty delta a merge only rewrites the main, which is worth
	// doing solely when GC is on and dead versions actually linger there;
	// with GC off (or nothing dead) it would be a full-table no-op.
	if s.t.DeltaRows() == 0 &&
		(!s.t.GCEnabled() || s.t.Rows() == s.t.ValidRows()) {
		return nil
	}
	threads := s.cfg.Threads
	if threads <= 0 && s.cfg.Strategy == Background {
		threads = 1
	}
	_, err := s.t.Merge(ctx, table.MergeOptions{
		Algorithm: s.cfg.Algorithm,
		Threads:   threads,
	})
	return err
}

// ShouldMerge evaluates the trigger condition against current table state.
func (s *Scheduler) ShouldMerge() bool {
	nd := s.t.DeltaRows()
	if nd <= s.cfg.MinDeltaRows {
		return false
	}
	nm := s.t.MainRows()
	if nm == 0 {
		return true
	}
	return float64(nd) > s.cfg.Fraction*float64(nm)
}

func (s *Scheduler) loop(ctx context.Context, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if s.Paused() || !s.ShouldMerge() {
			continue
		}
		threads := s.cfg.Threads
		if threads <= 0 {
			threads = 0 // all resources
			if s.cfg.Strategy == Background {
				threads = 1
			}
		}
		rep, err := s.t.Merge(ctx, table.MergeOptions{
			Algorithm: s.cfg.Algorithm,
			Threads:   threads,
		})
		if errors.Is(err, context.Canceled) {
			// Stop cancelled a merge in flight: it rolled back cleanly and
			// the table is intact, so this is shutdown, not a failure.
			continue
		}
		s.mu.Lock()
		if err != nil {
			s.lastErr = err
			s.mu.Unlock()
			if s.cfg.OnError != nil {
				s.cfg.OnError(err)
			}
			continue
		}
		s.merges++
		s.mu.Unlock()
		if s.cfg.OnMerge != nil {
			s.cfg.OnMerge(rep)
		}
	}
}
