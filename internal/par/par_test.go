package par

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// procs is the GOMAXPROCS every test here runs at: a pool of up to three
// workers, even on a one-CPU host.
const procs = 4

func setProcs(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 7 [running]:").
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, err := strconv.ParseUint(strings.Fields(string(buf[:n]))[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	setProcs(t)
	for _, n := range []int{0, 1, 64} {
		calls := make([]atomic.Int32, n)
		Do(n, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

// TestDoNestedConcurrent runs Do three deep from 8 callers at once: with
// far more pieces than workers, every level must fall back to its caller
// instead of waiting.
func TestDoNestedConcurrent(t *testing.T) {
	setProcs(t)
	const callers, fan = 8, 4
	var leaves atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				Do(fan, func(int) {
					Do(fan, func(int) {
						Do(fan, func(int) { leaves.Add(1) })
					})
				})
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("nested Do calls did not return")
	}
	if got, want := leaves.Load(), int64(callers*fan*fan*fan); got != want {
		t.Fatalf("%d leaves ran, want %d", got, want)
	}
}

// TestPoolBound keeps 8 callers handing off pieces and records the most
// pieces ever running off their caller's goroutine at once: that is the
// pool at work, and it never exceeds GOMAXPROCS−1.
func TestPoolBound(t *testing.T) {
	setProcs(t)
	var running, high atomic.Int64
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			caller := goid()
			for range 20 {
				Do(16, func(int) {
					if goid() == caller {
						return
					}
					r := running.Add(1)
					for h := high.Load(); r > h && !high.CompareAndSwap(h, r); h = high.Load() {
					}
					time.Sleep(50 * time.Microsecond)
					running.Add(-1)
				})
			}
		}()
	}
	wg.Wait()
	if h := high.Load(); h < 1 || h > procs-1 {
		t.Fatalf("at most %d pieces ran off their caller, want 1..%d", h, procs-1)
	}
	if w := workers.Load(); w > procs-1 {
		t.Fatalf("pool holds %d workers, want at most %d", w, procs-1)
	}
}

// TestSaturatedRunsOnCaller occupies every worker, then checks that Do
// runs its second index on the caller instead of waiting for one.
func TestSaturatedRunsOnCaller(t *testing.T) {
	setProcs(t)
	release := make(chan struct{})
	defer close(release)
	// Each holder hands one blocking piece to the pool; a piece that finds
	// no worker free yet runs on its holder and returns at once, so holders
	// are started until every worker is blocked.
	var busy atomic.Int32
	for deadline := time.Now().Add(10 * time.Second); busy.Load() < procs-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers took a blocking piece", busy.Load(), procs-1)
		}
		go func() {
			holder := goid()
			Do(2, func(i int) {
				if i == 1 && goid() != holder {
					busy.Add(1)
					<-release
				}
			})
		}()
	}

	var ran [2]uint64
	caller := make(chan uint64, 1)
	done := make(chan struct{})
	go func() {
		caller <- goid()
		Do(2, func(i int) { ran[i] = goid() })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Do waited for a worker of a saturated pool")
	}
	if c := <-caller; ran[0] != c || ran[1] != c {
		t.Fatalf("pieces ran on goroutines %v, want both on the caller %d", ran, c)
	}
	if w := workers.Load(); w != procs-1 {
		t.Fatalf("pool holds %d workers, want %d", w, procs-1)
	}
}
