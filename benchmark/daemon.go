package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hyrise/client"
)

// target is a served store a workload runs against: the hyrised child
// process in a real run, an in-process server in the smoke test.
type target interface {
	Addr() string
	// PeakRSS is the peak resident set, in bytes, of the process serving
	// the store.
	PeakRSS() float64
	Stop()
}

// startTarget brings up an empty sales store with the given shard count.
type startTarget func(shards int) (target, error)

// children tracks live hyrised processes so that every exit path —
// return, panic, signal or the global timeout — can kill them.
var children struct {
	sync.Mutex
	live map[*daemon]struct{}
}

func killChildren() {
	children.Lock()
	live := children.live
	children.live = nil
	children.Unlock()
	for d := range live {
		d.kill()
	}
}

// daemon is one hyrised child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed when the process has been waited for
}

// daemonStarter returns a startTarget that runs the hyrised binary under
// dir/bin with GOMAXPROCS pinned to the CPU count and its log in dir.
func daemonStarter(dir string) startTarget {
	return func(shards int) (target, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()

		logf, err := os.Create(filepath.Join(dir, "hyrised.log"))
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(filepath.Join(dir, "bin", "hyrised"),
			"-addr", addr, "-table", "sales", "-schema", salesSchema,
			"-shards", strconv.Itoa(shards), "-index", "order_id")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
		cmd.Stdout, cmd.Stderr = logf, logf
		// The child must not outlive the driver, even on SIGKILL.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("start hyrised: %w", err)
		}
		d := &daemon{cmd: cmd, addr: addr, log: logf, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // exit status is irrelevant: Stop kills on purpose
			close(d.done)
		}()
		children.Lock()
		if children.live == nil {
			children.live = map[*daemon]struct{}{}
		}
		children.live[d] = struct{}{}
		children.Unlock()

		if err := waitPing(addr, d.done, 10*time.Second); err != nil {
			d.Stop()
			return nil, err
		}
		return d, nil
	}
}

// waitPing dials until the server answers a Ping, the process exits or
// the deadline passes.
func waitPing(addr string, exited <-chan struct{}, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		c, err := client.DialOptions(addr, client.Options{Conns: 1, DialTimeout: time.Second})
		if err == nil {
			err = c.Ping()
			c.Close()
			if err == nil {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("hyrised exited before serving (see hyrised.log)")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hyrised not serving on %s after %v: %w", addr, limit, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) Addr() string { return d.addr }

func (d *daemon) PeakRSS() float64 { return procStatusBytes(d.cmd.Process.Pid, "VmHWM") }

// Stop kills the child and waits until it has ended.  The store is
// in-memory and the run is over, so there is nothing to drain or save.
func (d *daemon) Stop() {
	children.Lock()
	delete(children.live, d)
	children.Unlock()
	d.kill()
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.done
	d.log.Close()
}

// procStatusBytes reads a kB field of /proc/<pid>/status: VmHWM is the
// peak resident set, VmRSS the current one.  0 when unreadable.
func procStatusBytes(pid int, field string) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb * 1024
		}
	}
	return 0
}

// withTimeout runs fn and kills the children and exits if it does not
// finish within limit.
func withTimeout(ctx context.Context, limit time.Duration, fn func(context.Context) int) int {
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	done := make(chan int, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				killChildren()
				panic(r)
			}
		}()
		done <- fn(ctx)
	}()
	select {
	case code := <-done:
		return code
	case <-ctx.Done():
		killChildren()
		fmt.Fprintln(os.Stderr, "hyrisebench:", ctx.Err())
		return 3
	}
}
