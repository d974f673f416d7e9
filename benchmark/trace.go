package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval.  Times are nanoseconds since the run's
// epoch; Parent is the ID of the span that caused it (0 for a root) and
// Req ties together the spans of one request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer hands out span IDs and gathers the spans of a run.  Hot paths
// (one worker per connection) buffer spans privately and add them in one
// call when they finish; spans stay in memory until write.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// tracedTurn says whether the i-th slice or cycle of a traced run is a
// traced one.  The pattern plain-traced-traced-plain gives both halves
// the same mean position in the window, so a store that drifts as it
// grows does not read as tracing overhead.
func tracedTurn(i int) bool { return i%4 == 1 || i%4 == 2 }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// record adds a finished span and returns its ID.
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	s := span{ID: t.id(), Parent: parent, Name: name, Start: t.since(start), End: t.since(end)}
	t.add([]span{s})
	return s.ID
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int64, fn func(id int64)) {
	id := t.id()
	start := time.Now()
	fn(id)
	t.add([]span{{ID: id, Parent: parent, Name: name, Start: t.since(start), End: t.since(time.Now())}})
}

// add stores finished spans, numbering those that have no ID yet.
func (t *tracer) add(spans []span) {
	t.mu.Lock()
	for _, s := range spans {
		if s.ID == 0 {
			s.ID = t.id()
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// selfTime is the time the spans of one name spent themselves: their
// duration minus the part their direct children cover.
type selfTime struct {
	Seconds float64 `json:"seconds"`
	Count   int     `json:"count"`
}

func (s selfTime) meanNS() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Seconds * 1e9 / float64(s.Count)
}

// selfTimes sums self time per span name.  Children of one parent never
// overlap here (each parent is one goroutine's sequence), so the covered
// part is the plain sum of the children.
func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]selfTime{}
	for _, s := range t.spans {
		st := self[s.Name]
		st.Seconds += float64(s.End-s.Start-childSum[s.ID]) / 1e9
		st.Count++
		self[s.Name] = st
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
