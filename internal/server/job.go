package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skandium"
	"skandium/internal/core"
	"skandium/internal/exec"
	"skandium/internal/metrics"
)

// jobState is the lifecycle of one submitted job.
type jobState string

// Job lifecycle states.
const (
	stateQueued   jobState = "queued"   // accepted, waiting for budget
	stateRunning  jobState = "running"  // admitted, executing
	stateDone     jobState = "done"     // finished successfully
	stateFailed   jobState = "failed"   // a muscle failed
	stateCanceled jobState = "canceled" // canceled by request or shutdown
)

// errCanceled resolves executions canceled through the API.
var errCanceled = fmt.Errorf("server: job canceled by request")

// errShutdown resolves executions cut off by daemon shutdown.
var errShutdown = fmt.Errorf("server: daemon shutting down")

// job is one submitted execution: the erased runner plus its QoS, event
// log, timeline recorder and arbitration state. It implements core.Member,
// so the arbiter reads its controller's demand and imposes grants directly.
//
// A job has two shapes. While queued or running it holds its runner and,
// once started, its handle. When it reaches a terminal state it keeps only
// its outcome: the runner, handle and raw result are dropped. A job
// restored from the journal is born in the terminal shape.
type job struct {
	id       string
	skeleton string
	program  string
	params   skandium.Params
	runner   skandium.Runner // nil once terminal
	goal     time.Duration
	maxLP    int
	initLP   int
	// policy names the adaptation rule driving this job's controller
	// ("" = the paper rule); resolved against the server default at submit.
	policy string
	// tenant (canonical, never "") and priority place the job on the
	// admission ladder and in the arbiter's weighted budget division.
	tenant   string
	priority int
	timeout  time.Duration
	retry    skandium.RetryPolicy
	partial  skandium.PartialPolicy
	log      *eventLog
	// rec is the job's LP/active timeline (nil for restored jobs, which
	// never ran here).
	rec *metrics.Recorder
	// remoteOK marks the job routable to the cluster: eligible blueprint,
	// no local-only QoS/fault knobs (shardability is checked at start).
	remoteOK bool

	// Crash-recovery state. recovered marks a job that survived a restart:
	// re-queued from the journal (it re-runs; muscles are pure) or restored
	// as a terminal outcome. prior carries fault counters journaled before
	// the crash; faultRetries/faultFaults accumulate this run's, for mid-run
	// journaling (listener goroutines, hence atomics).
	recovered    bool
	prior        skandium.FaultStats
	faultRetries atomic.Uint64
	faultFaults  atomic.Uint64
	// gaugeLP is the LP the job last added to the fleet LP sum, -1 once it
	// ended and left the sum. Guarded by the server's lpMu.
	gaugeLP int

	mu       sync.Mutex
	state    jobState
	grant    int
	handle   skandium.Handle // nil while queued and once terminal
	created  time.Time
	started  time.Time
	finished time.Time
	out      *outcome // set exactly when state is terminal
	canceled bool
}

// outcome is a job's execution record: what its view, /decisions,
// /timeline and /metrics render besides the spec. A live job's record is
// read fresh from its handle; a terminal job's is frozen once, when it
// ends, or rebuilt from the journal on restore.
type outcome struct {
	result         string // summarized result; "" when err is set
	err            string
	faults         skandium.FaultStats // including the counters of runs before a crash
	stats          exec.Stats
	analyses       int
	decisions      []skandium.Decision
	demand         core.Demand // the controller's last wish
	failedBranches int
}

// observe reads a job's execution record from its handle (nil for a job
// still queued: only the prior fault counters).
func (j *job) observe(h skandium.Handle) outcome {
	o := outcome{faults: j.totalFaults(h)}
	if h == nil {
		return o
	}
	o.stats = h.Stats()
	o.analyses = h.Analyses()
	o.decisions = h.Decisions()
	o.demand = demandOf(h)
	if f := h.Failures(); f != nil {
		o.failedBranches = len(f.Failures)
	}
	return o
}

// end moves the job to a terminal state with its outcome and drops its
// execution. Caller holds j.mu.
func (j *job) end(state jobState, out *outcome, at time.Time) {
	j.state, j.out, j.finished = state, out, at
	j.handle, j.runner = nil, nil
}

// demandOf is a handle's demand as the arbiter reads it.
func demandOf(h skandium.Handle) core.Demand {
	d := h.Demand()
	if d.CurrentLP == 0 {
		// No autonomic controller (no WCT goal): hold what the pool uses.
		d.CurrentLP = h.LP()
	}
	return d
}

// Demand implements core.Member: the controller's wish once running, a
// minimal placeholder while queued (so a just-admitted job starts at one
// worker until its first analysis), the last wish once terminal.
func (j *job) Demand() core.Demand {
	j.mu.Lock()
	h, out := j.handle, j.out
	j.mu.Unlock()
	switch {
	case h != nil:
		return demandOf(h)
	case out != nil:
		return out.demand
	}
	return core.Demand{}
}

// Grant implements core.Member: the arbiter's budget share becomes the
// stream's external LP cap.
func (j *job) Grant(n int) {
	j.mu.Lock()
	j.grant = n
	h := j.handle
	j.mu.Unlock()
	if h != nil {
		h.SetCap(n)
	}
}

// jobSnapshot is a job's mutable fields read under its lock.
type jobSnapshot struct {
	state             jobState
	grant             int
	handle            skandium.Handle
	started, finished time.Time
	out               *outcome
}

// snapshot returns the mutable fields under the job lock.
func (j *job) snapshot() jobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobSnapshot{j.state, j.grant, j.handle, j.started, j.finished, j.out}
}

// decisions returns a job's decision log: its handle's while it runs, its
// outcome's once terminal.
func (j *job) decisions() []skandium.Decision {
	snap := j.snapshot()
	switch {
	case snap.out != nil:
		return snap.out.decisions
	case snap.handle != nil:
		return snap.handle.Decisions()
	}
	return nil
}

// totalFaults merges the fault counters journaled before a crash with this
// run's (h is nil for a still-queued job).
func (j *job) totalFaults(h skandium.Handle) skandium.FaultStats {
	fs := j.prior
	if h != nil {
		cur := h.FaultStats()
		fs.Retries += cur.Retries
		fs.Faults += cur.Faults
		fs.Timeouts += cur.Timeouts
		fs.Skipped += cur.Skipped
		fs.Substituted += cur.Substituted
	}
	return fs
}

// terminal reports whether the state is final.
func (s jobState) terminal() bool {
	return s == stateDone || s == stateFailed || s == stateCanceled
}
