package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildDir is where binaries, the Go build cache, WAL directories and
// server logs live: inside the checkout and ignored by git.
const buildDir = ".bench_build"

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// buildServer compiles cmd/qtag-server into buildDir and returns the
// binary's path and how long the build took.
func buildServer() (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "qtag-server"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/qtag-server")
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build qtag-server: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// server is one spawned qtag-server process. Its argv is fixed at
// creation so a restart after kill -9 runs exactly the same command on
// the unchanged WAL directory.
type server struct {
	bin  string
	args []string
	addr string // host:port
	log  string

	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// start launches the process; it returns once the process exists, not
// once it is ready.
func (s *server) start() error {
	logf, err := os.OpenFile(s.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	s.cmd = exec.Command(s.bin, s.args...)
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", s.bin, err)
	}
	exited := make(chan struct{})
	s.exited = exited
	go func(cmd *exec.Cmd) {
		_ = cmd.Wait() // a killed process's exit status is not an error here
		close(exited)
	}(s.cmd)
	return nil
}

// probeClient opens a fresh connection per probe so a probe never
// reuses a socket of the process that was just killed.
var probeClient = &http.Client{
	Timeout:   2 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url("/readyz"), nil)
		if err != nil {
			return err
		}
		resp, err := probeClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return fmt.Errorf("server %s not ready: %w (log %s)", s.addr, ctx.Err(), s.log)
		}
		select {
		case <-s.exited:
			return fmt.Errorf("server %s exited before ready (log %s)", s.addr, s.log)
		case <-time.After(2 * time.Millisecond): // each probe is a request the booting server has to answer
		}
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *server) kill() {
	if s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Kill() // fails only when the process is already gone
	<-s.exited
	s.cmd = nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procSample is what /proc says about one process at one instant.
type procSample struct {
	userTicks, sysTicks int64
	hwmKB               int64
	ctxSwitches         int64
}

func (p procSample) cpu() time.Duration {
	return time.Duration(p.userTicks+p.sysTicks) * time.Second / clockTick
}

// sampleProc reads /proc/<pid>/stat, /proc/<pid>/status and the
// per-thread context-switch counts.
func sampleProc(pid int) (procSample, error) {
	var p procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return p, err
	}
	p.userTicks, p.sysTicks, err = parseStat(stat)
	if err != nil {
		return p, err
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return p, err
	}
	p.hwmKB = parseStatus(status)["VmHWM"]
	// /proc/<pid>/status counts the main thread's switches only; a Go
	// server does its work on the other threads.
	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/task/" + t.Name() + "/status")
		if err != nil {
			continue // the thread exited between ReadDir and ReadFile
		}
		ts := parseStatus(b)
		p.ctxSwitches += ts["voluntary_ctxt_switches"] + ts["nonvoluntary_ctxt_switches"]
	}
	return p, nil
}

// parseStat extracts utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStat(b []byte) (utime, stime int64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime is field 14 → f[11], stime → f[12].
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	if utime, err = strconv.ParseInt(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseInt(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// parseStatus returns the integer-valued lines of a /proc status file
// ("VmHWM:  1234 kB" → 1234).
func parseStatus(b []byte) map[string]int64 {
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			out[key] = v
		}
	}
	return out
}

// selfCPU is the generator's own user+system CPU time.
func selfCPU() time.Duration {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	u, s, err := parseStat(b)
	if err != nil {
		return 0
	}
	return time.Duration(u+s) * time.Second / clockTick
}

// fsType names the filesystem holding dir, from /proc/self/mountinfo
// (longest mount-point prefix wins).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	return parseMountinfo(b, abs)
}

func parseMountinfo(b []byte, abs string) string {
	best, bestLen := "unknown", -1
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw"
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		if !ok {
			continue
		}
		pf, qf := strings.Fields(pre), strings.Fields(post)
		if len(pf) < 5 || len(qf) < 1 {
			continue
		}
		mp := pf[4]
		if mp != "/" && abs != mp && !strings.HasPrefix(abs, mp+"/") {
			continue
		}
		if len(mp) > bestLen {
			best, bestLen = qf[0], len(mp)
		}
	}
	return best
}
