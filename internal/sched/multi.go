package sched

import (
	"context"
	"errors"
	"runtime"
)

// Multi supervises many merge targets — typically the shards of a sharded
// table — with one independent supervision loop per target, so each
// shard's delta fraction is watched and merged on its own schedule: a
// write-hot shard merges often while cold shards stay untouched, and
// several shards can merge concurrently.
//
// Unless cfg.Threads is set, the machine's threads are divided evenly
// across targets (minimum one each) so N concurrent shard merges do not
// oversubscribe the cores the way N AllResources schedulers would.
type Multi struct {
	scheds []*Scheduler
}

// NewMulti returns a stopped multi-target scheduler applying cfg to every
// target.  cfg.OnMerge and cfg.OnError observe merges of all targets and
// must be safe for concurrent use.
func NewMulti(targets []MergeTable, cfg Config) *Multi {
	if cfg.Threads <= 0 && cfg.Strategy == AllResources && len(targets) > 0 {
		cfg.Threads = runtime.GOMAXPROCS(0) / len(targets)
		if cfg.Threads < 1 {
			cfg.Threads = 1
		}
	}
	m := &Multi{}
	for _, t := range targets {
		m.scheds = append(m.scheds, New(t, cfg))
	}
	return m
}

// Scheduler returns the supervisor of the i-th target.
func (m *Multi) Scheduler(i int) *Scheduler { return m.scheds[i] }

// Start launches every target's supervision loop.  If any fails to start,
// the already-started loops are stopped and the first error returned.
func (m *Multi) Start() error {
	for i, s := range m.scheds {
		if err := s.Start(); err != nil {
			for j := 0; j < i; j++ {
				m.scheds[j].Stop()
			}
			return err
		}
	}
	return nil
}

// Stop terminates every loop and waits for them.  Merges in flight are
// cancelled and roll back cleanly; their delta rows remain for the next
// merge.
func (m *Multi) Stop() {
	for _, s := range m.scheds {
		s.Stop()
	}
}

// Pause suspends triggering on every target.
func (m *Multi) Pause() {
	for _, s := range m.scheds {
		s.Pause()
	}
}

// Resume re-enables triggering on every target.
func (m *Multi) Resume() {
	for _, s := range m.scheds {
		s.Resume()
	}
}

// Paused reports whether triggering is suspended on every target.
func (m *Multi) Paused() bool {
	for _, s := range m.scheds {
		if !s.Paused() {
			return false
		}
	}
	return true
}

// MergeNow synchronously drains every target's delta (see
// Scheduler.MergeNow), joining any per-target errors.
func (m *Multi) MergeNow(ctx context.Context) error {
	var errs []error
	for _, s := range m.scheds {
		if err := s.MergeNow(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ShouldMerge reports whether any target currently meets its trigger
// condition.
func (m *Multi) ShouldMerge() bool {
	for _, s := range m.scheds {
		if s.ShouldMerge() {
			return true
		}
	}
	return false
}

// Merges returns the total number of merges completed across targets.
func (m *Multi) Merges() int {
	n := 0
	for _, s := range m.scheds {
		n += s.Merges()
	}
	return n
}

// LastErr joins the most recent merge error of every target, nil if none.
func (m *Multi) LastErr() error {
	var errs []error
	for _, s := range m.scheds {
		if err := s.LastErr(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
