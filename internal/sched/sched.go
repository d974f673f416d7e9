// Package sched implements merge scheduling (paper §3, §9): one background
// supervisor per store that triggers a partition's merge when its delta
// exceeds a configured fraction of its main, plus pause/resume control.
// The paper's two resource strategies are the thread budget: by default
// every merge may use the whole machine and the process's one pool
// (internal/par) shares it between concurrent merges and reads (strategy
// (a), what the evaluation assumes), and Threads: 1 is the constant
// single-thread background merge (strategy (b)).
package sched

import (
	"context"
	"errors"
	"sync"
	"time"

	"hyrise/internal/table"
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
	// Threads is the thread budget of every merge, as in
	// table.MergeOptions (0 = GOMAXPROCS).  Concurrent partition merges do
	// not divide it: they share the cores through the process's one pool.
	Threads int
	// OnMerge, if non-nil, observes every completed scheduled merge; it
	// must be safe for concurrent use (partitions merge concurrently).
	OnMerge func(table.Report)
	// OnError, if non-nil, observes merge failures, likewise concurrently.
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

// Scheduler supervises every partition its source currently lists.  The
// source is re-read on every tick, so partitions an online reshard creates
// are supervised from the next tick on.  Each partition is watched on its
// own trigger — a write-hot partition merges often while cold ones stay
// untouched — different partitions merge concurrently, and a partition has
// at most one scheduled merge in flight.  Create with New, then Start.
type Scheduler struct {
	src func() []*table.Table
	cfg Config

	mu      sync.Mutex
	paused  bool
	cancel  context.CancelFunc
	done    chan struct{}
	busy    map[*table.Table]struct{} // partitions with a scheduled merge in flight
	merges  int
	lastErr error
}

// New returns a stopped scheduler over the partitions src lists; a store
// passes its Partitions method.
func New(src func() []*table.Table, cfg Config) *Scheduler {
	cfg.setDefaults()
	return &Scheduler{src: src, cfg: cfg, busy: make(map[*table.Table]struct{})}
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

// Stop terminates the loop and waits for it and for every merge it
// started.  Merges in flight are cancelled and roll back cleanly — their
// delta rows stay in place and are picked up by the next merge (manual or
// scheduled).
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

// Pause suspends triggering; merges in flight complete.  The paper §3
// notes a scheduler may "pause and resume the merge process" to yield
// resources; we pause at merge granularity.
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

// Merges returns the number of scheduled merges completed, over all
// partitions.
func (s *Scheduler) Merges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.merges
}

// LastErr returns the most recent scheduled-merge error, if any.
func (s *Scheduler) LastErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// MergeNow synchronously merges every live partition that holds delta rows
// or invalidated versions a garbage-collecting merge could reclaim,
// regardless of the trigger condition, concurrently and with the
// scheduler's thread budget, joining the per-partition errors.  It needs
// no running supervision loop; a partition whose merge is already in
// flight reports table.ErrMergeInProgress.  Callers use it to drain a
// store deliberately — cmd/hyrised compacts with it on shutdown so the
// saved snapshot reloads with everything merged and reclaimed.
func (s *Scheduler) MergeNow(ctx context.Context) error {
	var dirty []*table.Table
	for _, t := range s.src() {
		// With an empty delta a merge only rewrites the main, which is
		// worth doing solely when it could reclaim dead versions the last
		// merge kept; otherwise it would be a full-table no-op.
		if t.DeltaRows() > 0 || t.MayReclaim() {
			dirty = append(dirty, t)
		}
	}
	_, errs := table.MergeEach(ctx, dirty, table.MergeOptions{Threads: s.cfg.Threads})
	return errors.Join(errs...)
}

// ShouldMerge reports whether any live partition currently meets the
// trigger condition.
func (s *Scheduler) ShouldMerge() bool {
	for _, t := range s.src() {
		if s.triggered(t) {
			return true
		}
	}
	return false
}

// triggered evaluates N_D > Fraction * N_M on one partition.  A sealed
// partition (see table.Table.Seal) also triggers while a merge could
// reclaim one of its dead versions (table.Table.MayReclaim, O(1)): it
// takes no new version, so only such merges empty it, and a store drops a
// sealed window once they have.  While a live pin alone retains the dead
// versions its last merge kept, it does not trigger again until the pin
// is released.
func (s *Scheduler) triggered(t *table.Table) bool {
	if t.Sealed() && t.MayReclaim() {
		return true
	}
	nd := t.DeltaRows()
	if nd <= s.cfg.MinDeltaRows {
		return false
	}
	nm := t.MainRows()
	if nm == 0 {
		return true
	}
	return float64(nd) > s.cfg.Fraction*float64(nm)
}

// claim marks t as merging under this scheduler; false if it already is.
func (s *Scheduler) claim(t *table.Table) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.busy[t]; ok {
		return false
	}
	s.busy[t] = struct{}{}
	return true
}

func (s *Scheduler) loop(ctx context.Context, done chan struct{}) {
	defer close(done)
	var inflight sync.WaitGroup
	defer inflight.Wait()
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if s.Paused() {
			continue
		}
		for _, t := range s.src() {
			if !s.triggered(t) || !s.claim(t) {
				continue
			}
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				s.merge(ctx, t)
			}()
		}
	}
}

// merge runs one scheduled merge of a claimed partition and accounts it.
func (s *Scheduler) merge(ctx context.Context, t *table.Table) {
	rep, err := t.Merge(ctx, table.MergeOptions{Threads: s.cfg.Threads})
	s.mu.Lock()
	delete(s.busy, t)
	if errors.Is(err, context.Canceled) {
		// Stop cancelled the merge: it rolled back cleanly and the
		// partition is intact, so this is shutdown, not a failure.
		s.mu.Unlock()
		return
	}
	if err != nil {
		s.lastErr = err
	} else {
		s.merges++
	}
	s.mu.Unlock()
	if err != nil {
		if s.cfg.OnError != nil {
			s.cfg.OnError(err)
		}
	} else if s.cfg.OnMerge != nil {
		s.cfg.OnMerge(rep)
	}
}
