package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
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

// buildServers compiles cmd/securedb and cmd/uddiserver from the tree
// under test into binDir. The go toolchain's own environment (GOCACHE,
// GOTMPDIR) is whatever run.sh exported, so nothing is written outside
// the checkout.
func buildServers(ctx context.Context, root, binDir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/securedb", "./cmd/uddiserver")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("build servers: %v\n%s", err, out)
	}
	return nil
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the server binds it; a collision shows up as a failed
// launch, never as a wrong answer.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// server is one launched server process. Its combined output goes to a
// log file in the run directory; stdout is also kept in memory because
// uddiserver prints the provider key there.
type server struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	started time.Time

	mu     sync.Mutex
	stdout bytes.Buffer // seclint:guardedby mu

	exited chan struct{}
	err    error // set before exited is closed
}

// lockedWriter serialises the process's stdout into the server's buffer
// and its log file.
type lockedWriter struct {
	s *server
	f *os.File
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.s.mu.Lock()
	w.s.stdout.Write(p)
	w.s.mu.Unlock()
	return w.f.Write(p)
}

// startServer launches bin with args, logging into dir.
func startServer(name, bin, dir string, args ...string) (*server, error) {
	logPath := filepath.Join(dir, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	s := &server{name: name, logPath: logPath, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = lockedWriter{s: s, f: f}
	s.cmd.Stderr = f
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		f.Close()
		close(s.exited)
	}()
	return s, nil
}

// stdoutText returns what the process has printed so far.
func (s *server) stdoutText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stdout.String()
}

// alive reports an error carrying the log tail if the process has exited.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("%s exited (%v); log tail:\n%s", s.name, s.err, s.logTail())
	default:
		return nil
	}
}

// logTail returns the last lines of the server log.
func (s *server) logTail() string {
	raw, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// peakRSSMiB reads VmHWM, the process's peak resident set, in MiB.
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", s.name)
}

// userHZ is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times: 100 on every architecture Linux's ABI fixes it for.
const userHZ = 100

// cpuTime reads the process's user plus system CPU time.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime and stime the 12th and 13th.
	text := string(raw)
	fields := strings.Fields(text[strings.LastIndexByte(text, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat", s.name)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after the grace period. It always waits for exit.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is the goal
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill() // last resort after the drain deadline
		<-s.exited
	}
}

// waitReady polls probe until it returns nil, the process dies, or the
// deadline passes. It returns the time from launch to the first correct
// answer — the setup time.
func (s *server) waitReady(ctx context.Context, deadline time.Duration, probe func() error) (time.Duration, error) {
	limit := time.Now().Add(deadline)
	var last error
	for {
		if err := probe(); err == nil {
			return time.Since(s.started), nil
		} else {
			last = err
		}
		if err := s.alive(); err != nil {
			return 0, err
		}
		if time.Now().After(limit) {
			return 0, fmt.Errorf("%s not ready after %s: %v; log tail:\n%s", s.name, deadline, last, s.logTail())
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cpuTicks is the machine-wide CPU time from /proc/stat, in ticks.
type cpuTicks struct{ steal, total uint64 }

// hostTicks reads the machine-wide CPU time and the part of it the
// hypervisor gave to other guests while this one had work (steal). Both
// are zero where /proc/stat cannot be read.
func hostTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range strings.Fields(line)[1:] {
		if i == 8 {
			break
		}
		n, _ := strconv.ParseUint(f, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// stealSince returns the share of CPU time stolen since t0.
func stealSince(t0 cpuTicks) float64 {
	t1 := hostTicks()
	return ratio(float64(t1.steal-t0.steal), float64(t1.total-t0.total))
}
