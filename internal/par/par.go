// Package par is the store's one CPU budget (paper §6.2.1: a merge's N_T
// workers come from one budget).  Every parallel loop of the store — the
// scan kernels' split, the read fan-out over partitions, the merges of
// several partitions and the pieces of one merge — runs through Do, which
// hands its pieces to one process-wide pool of at most GOMAXPROCS−1
// long-lived workers.  However many loops run at once or nest, together
// they keep at most one goroutine per processor busy beside their callers.
//
// Do never waits for a worker: a piece that finds none free runs on its
// caller, so nested and concurrent calls cannot deadlock.  GOMAXPROCS is
// read at every hand-off, so raising it grows the pool at once; a worker
// beyond a lowered GOMAXPROCS retires after its next piece.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// task is one index of a Do call, handed to a worker.
type task struct {
	f  func(int)
	i  int
	wg *sync.WaitGroup
}

var (
	// idle is unbuffered: a send succeeds exactly when a worker waits.
	idle    = make(chan task)
	workers atomic.Int64
)

// Do calls f(0), ..., f(n-1), possibly concurrently, and returns once every
// call has returned.  f(0) runs on the caller's goroutine.  Every other
// index goes to an idle worker, or to a new one while the pool holds fewer
// than GOMAXPROCS−1, and otherwise runs on the caller after f(0).
func Do(n int, f func(int)) {
	if n <= 1 {
		if n == 1 {
			f(0)
		}
		return
	}
	var wg sync.WaitGroup
	i := 1
	for i < n && handOff(task{f, i, &wg}) {
		i++
	}
	f(0)
	for ; i < n; i++ {
		if !handOff(task{f, i, &wg}) {
			f(i)
		}
	}
	wg.Wait()
}

// handOff gives t to an idle worker or to a new one and reports whether it
// did; it never blocks.
func handOff(t task) bool {
	t.wg.Add(1)
	select {
	case idle <- t:
		return true
	default:
	}
	if w := workers.Load(); w < int64(runtime.GOMAXPROCS(0)-1) && workers.CompareAndSwap(w, w+1) {
		go work(t)
		return true
	}
	t.wg.Done()
	return false
}

// work is a pool worker: it runs t, then every task it receives, until it
// finds the pool larger than GOMAXPROCS−1 after a task.
func work(t task) {
	for {
		t.f(t.i)
		t.wg.Done()
		if w := workers.Load(); w >= int64(runtime.GOMAXPROCS(0)) && workers.CompareAndSwap(w, w-1) {
			return
		}
		t = <-idle
	}
}
