package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one system-under-test process.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	done chan struct{}
	log  *os.File
}

// freeAddr picks a loopback port the kernel considers free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProc launches bin with args, logging to logPath. The kernel kills
// the process if the benchmark dies first.
func startProc(name, bin, addr, logPath string, args []string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, done: make(chan struct{}), log: lf}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop decides when it ends
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to shut down and kills it if it has not exited
// within a few seconds; it returns once the process has ended.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// waitHealthy polls url until it answers 200 with a body containing want
// (any body when want is empty), or the deadline passes.
func waitHealthy(ctx context.Context, p *proc, url, want string) error {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := client.Get(url)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), want) {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy (see %s)", p.name, p.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy at %s: %w", p.name, url, ctx.Err())
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// cpuMS returns the user+system CPU a process has used, from
// /proc/<pid>/stat, in milliseconds.
func cpuMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %d", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %d", pid)
	}
	const ticksPerSec = 100 // USER_HZ on Linux
	return (ut + st) * 1000 / ticksPerSec, nil
}

// memStats are the runtime.MemStats lines of a debug=1 heap profile.
type memStats struct {
	HeapAlloc     float64
	HeapInuse     float64
	NumGC         float64
	NumForcedGC   float64
	GCCPUFraction float64
}

// readHeap forces a GC in the daemon and reads its MemStats through the
// opt-in pprof listener.
func readHeap(client *http.Client, pprofAddr string) (memStats, error) {
	var m memStats
	resp, err := client.Get("http://" + pprofAddr + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return m, fmt.Errorf("heap profile: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("heap profile: HTTP %d", resp.StatusCode)
	}
	fields := map[string]*float64{
		"HeapAlloc": &m.HeapAlloc, "HeapInuse": &m.HeapInuse, "NumGC": &m.NumGC,
		"NumForcedGC": &m.NumForcedGC, "GCCPUFraction": &m.GCCPUFraction,
	}
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if p, want := fields[name]; ok && want && strings.HasPrefix(line, "# ") {
			if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
				*p = v
				seen++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return m, fmt.Errorf("heap profile: %w", err)
	}
	if seen < len(fields) {
		return m, fmt.Errorf("heap profile: found %d of %d MemStats fields", seen, len(fields))
	}
	return m, nil
}

// copyDir copies a flat directory (a journal) into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
