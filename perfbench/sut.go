package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"skandium/internal/journal"
)

// sut is one running system under test: skelrund and its workers.
type sut struct {
	daemon     *proc
	workers    []*proc
	addr       string // daemon API
	pprofAddr  string
	journalDir string
}

func (s *sut) stop() {
	s.daemon.stop()
	for _, w := range s.workers {
		w.stop()
	}
}

// pids lists every system-under-test process, daemon first.
func (s *sut) pids() []int {
	out := []int{s.daemon.cmd.Process.Pid}
	for _, w := range s.workers {
		out = append(out, w.cmd.Process.Pid)
	}
	return out
}

// writeFixture fills dir with n finished jobs drawn from the workload's
// generator, through the journal's public API, so every daemon start
// recovers the same fixed-size history.
func writeFixture(w *workload, seed int64, dir string, ref *reference) error {
	jn, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	r := w.rng(seed, "fixture")
	for i := 1; i <= w.fixtureJobs; i++ {
		req := w.draw(r)
		want, err := ref.expect(req)
		if err != nil {
			jn.Close()
			return err
		}
		id := "job-" + strconv.Itoa(i)
		spec := journal.Spec{Skeleton: req.Skeleton, Params: req.Params, GoalMS: req.GoalMS, Tenant: req.Tenant}
		if err := jn.Submit(id, spec); err != nil {
			jn.Close()
			return fmt.Errorf("fixture: %w", err)
		}
		if err := jn.Start(id); err != nil {
			jn.Close()
			return fmt.Errorf("fixture: %w", err)
		}
		if err := jn.Finish(id, journal.StateDone, want, "", journal.FaultCounts{}); err != nil {
			jn.Close()
			return fmt.Errorf("fixture: %w", err)
		}
	}
	return jn.Close()
}

// bringUp copies the fixture into a fresh journal directory, starts the
// workers and the daemon, and returns once /healthz reports "ok". The
// returned duration runs from the first exec to that answer.
func (b *bench) bringUp(ctx context.Context, tag string) (*sut, time.Duration, error) {
	s := &sut{journalDir: filepath.Join(b.work, "journal-"+tag)}
	if err := copyDir(b.fixture, s.journalDir); err != nil {
		return nil, 0, fmt.Errorf("copy fixture: %w", err)
	}
	var err error
	if s.addr, err = freeAddr(); err != nil {
		return nil, 0, err
	}
	if s.pprofAddr, err = freeAddr(); err != nil {
		return nil, 0, err
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()

	t0 := time.Now()
	var endpoints []string
	for i := 0; i < b.w.workers; i++ {
		addr, err := freeAddr()
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		args := append([]string{"-addr", addr}, b.w.workerFlags...)
		wp, err := startProc(fmt.Sprintf("skelworker-%d", i), filepath.Join(b.bin, "skelworker"), addr,
			filepath.Join(b.work, fmt.Sprintf("worker%d-%s.log", i, tag)), args)
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		s.workers = append(s.workers, wp)
		endpoints = append(endpoints, addr)
	}
	for _, wp := range s.workers {
		if err := waitHealthy(waitCtx, wp, "http://"+wp.addr+"/healthz", ""); err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	args := []string{"-addr", s.addr, "-journal-dir", s.journalDir, "-pprof", s.pprofAddr}
	if len(endpoints) > 0 {
		args = append(args, "-workers", strings.Join(endpoints, ","))
	}
	args = append(args, b.w.daemonFlags...)
	s.daemon, err = startProc("skelrund", filepath.Join(b.bin, "skelrund"), s.addr,
		filepath.Join(b.work, "skelrund-"+tag+".log"), args)
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	if err := waitHealthy(waitCtx, s.daemon, "http://"+s.addr+"/healthz", `"status": "ok"`); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}
