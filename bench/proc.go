//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where one harness invocation keeps its files: binaries under
// bench/out/bin (rebuilt by every set-up, go's cache makes that cheap),
// state under a per-run directory beside them — on the repository's own
// filesystem, so the WAL's fsyncs are real ones.
type env struct {
	root   string // repository root (holds go.mod)
	out    string // bench/out
	runDir string
	fused  string
	fuse   string
}

func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(raw, []byte("module corrfuse\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the corrfuse module (no go.mod found)")
		}
		dir = parent
	}
}

func newEnv(label string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(filepath.Join(out, "bin"), 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(out, "run-"+label+"-")
	if err != nil {
		return nil, err
	}
	return &env{
		root:   root,
		out:    out,
		runDir: runDir,
		fused:  filepath.Join(out, "bin", "fused"),
		fuse:   filepath.Join(out, "bin", "fuse"),
	}, nil
}

func (e *env) cleanup() {
	killChildren()
	os.RemoveAll(e.runDir)
}

// buildBinaries compiles the two programs under test from the checkout.
func (e *env) buildBinaries() error {
	for _, b := range []struct{ out, pkg string }{{e.fused, "./cmd/fused"}, {e.fuse, "./cmd/fuse"}} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = e.root
		if raw, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build %s: %v\n%s", b.pkg, err, raw)
		}
	}
	return nil
}

// fsType names the filesystem holding path, from /proc/mounts (longest
// mount-point prefix).
func fsType(path string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// children tracks every process the harness started, so that exit and
// signal paths can kill and reap them all.
var children struct {
	sync.Mutex
	m map[*child]struct{}
}

// child is a started program under test.
type child struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{}
	err    error
}

func startChild(bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.Stderr = &c.stderr
	// A harness that dies without running its exit path must not leave a
	// server behind.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	children.Lock()
	if children.m == nil {
		children.m = make(map[*child]struct{})
	}
	children.m[c] = struct{}{}
	children.Unlock()
	go func() {
		c.err = c.cmd.Wait()
		children.Lock()
		delete(children.m, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill sends SIGKILL and waits until the process has been reaped.
func (c *child) kill() {
	// An error means the process has exited already; done is awaited either way.
	_ = c.cmd.Process.Kill()
	<-c.done
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func killChildren() {
	children.Lock()
	var cs []*child
	for c := range children.m {
		cs = append(cs, c)
	}
	children.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// procCPU returns the CPU time a process has been running for, summed over
// its threads from /proc/<pid>/task/*/schedstat (nanoseconds on a CPU; the
// utime and stime of /proc/<pid>/stat count 10 ms ticks, too coarse for a
// one-second window).
func procCPU(pid int) (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("bench: no threads under /proc/%d/task: %v", pid, err)
	}
	var total int64
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(raw))
		if len(f) < 1 {
			return 0, fmt.Errorf("bench: malformed %s", p)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bench: malformed %s", p)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// cpuSampler reads a process's CPU time once per window until stopped, so
// that CPU per operation can be taken window by window like latency is.
type cpuSampler struct {
	pid  int
	stop chan struct{}
	done chan struct{}
	// at[i] is the process's CPU time i windows after the start.
	at []time.Duration
}

func sampleCPU(pid int, begin time.Time) *cpuSampler {
	s := &cpuSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for i := 0; ; i++ {
			select {
			case <-s.stop:
				return
			case <-time.After(time.Until(begin.Add(time.Duration(i) * window))):
			}
			cpu, err := procCPU(pid)
			if err != nil {
				return
			}
			s.at = append(s.at, cpu)
		}
	}()
	return s
}

// finish stops the sampler and returns the CPU time used in each full
// window, and in all the time since the first sample.
func (s *cpuSampler) finish() (windows []time.Duration, total time.Duration) {
	close(s.stop)
	<-s.done
	for i := 1; i < len(s.at); i++ {
		windows = append(windows, s.at[i]-s.at[i-1])
	}
	if last, err := procCPU(s.pid); err == nil && len(s.at) > 0 {
		total = last - s.at[0]
	}
	return windows, total
}

// procStatusKB reads one "Key:   N kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("bench: no %s in /proc/%d/status", key, pid)
}

// procWriteBytes reads write_bytes of /proc/<pid>/io: bytes the process
// caused to be sent to the storage layer.
func procWriteBytes(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("bench: no write_bytes in /proc/%d/io", pid)
}

// selfCPU returns the harness's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// copyDir copies a flat-or-nested directory of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		_, err = io.Copy(out, in)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		return err
	})
}
