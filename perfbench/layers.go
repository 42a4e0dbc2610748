package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"skandium"
	"skandium/internal/clock"
	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/journal"
	"skandium/internal/plan"
	"skandium/internal/remote"
	"skandium/internal/server"
	"skandium/internal/statemachine"
)

// directN is how many calls each direct layer measurement times;
// journalJobs is how many jobs' three records the append timing writes.
const (
	directN     = 300
	journalJobs = 400
)

// layerSet collects per-layer metrics and, for tail figures, which
// percentile was reported.
type layerSet struct {
	m    map[string]metric
	note map[string]string
}

func (l *layerSet) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// setTail reports the highest percentile (at most p99) that keeps ten
// samples beyond it, noting which it was.
func (l *layerSet) setTail(name string, xs []float64, unit string) {
	v, pct, ok := tail(xs)
	if !ok {
		l.set(name, 0, unit)
		l.note[name] = fmt.Sprintf("%d samples: too few for a tail", len(xs))
		return
	}
	l.set(name, v, unit)
	if pct < 99 {
		l.note[name] = fmt.Sprintf("p%.1f of %d samples (fewer than %d)", pct, len(xs), 100*minTail)
	}
}

// tracedRun repeats the load with spans around every benchmark-side call,
// then times each layer's public functions directly, and returns the
// per-layer metrics with the traced load pass. It prints the tracing
// overhead and the breakdown.
func (b *bench) tracedRun(ctx context.Context, plainE2E map[string]metric) (map[string]metric, *loadResult, error) {
	tr := newTracer()
	s, _, err := b.bringUp(ctx, "traced")
	if err != nil {
		return nil, nil, err
	}
	defer s.stop()
	res, err := b.load(ctx, s, tr)
	if err != nil {
		return nil, nil, err
	}
	tracedE2E, err := b.endToEnd(res, []float64{plainE2E["setup_s"].Value})
	if err != nil {
		return nil, nil, err
	}
	ls := &layerSet{m: map[string]metric{}, note: map[string]string{}}
	b.fromLoad(ls, res)
	if b.w.scrapeEvery == 0 {
		// No scrapes ran beside this workload's writes: time /metrics
		// against the table the load left behind instead.
		c := newClient(s.addr, tr)
		var sc []float64
		for i := 0; i < 30; i++ {
			r, err := c.timedGet(ctx, "metrics", "/metrics", "")
			if err != nil {
				c.close()
				return nil, nil, err
			}
			sc = append(sc, r.ms)
			ls.set("server.metrics_bytes", float64(r.bytes), "bytes")
		}
		c.close()
		ls.setTail("server.metrics_scrape_p99_ms", sc, "ms")
	}

	// The daemon stops before the direct measurements so they run on an
	// idle machine; its workers stay up for the remote layer.
	s.daemon.stop()
	workers := s.workers
	if len(workers) == 0 {
		if workers, err = b.startWorkers("direct"); err != nil {
			return nil, nil, err
		}
		defer func() {
			for _, w := range workers {
				w.stop()
			}
		}()
	}
	if err := b.direct(ctx, ls, tr, res, workers); err != nil {
		return nil, nil, err
	}
	if err := tr.write(filepath.Join(b.work, "spans.ndjson")); err != nil {
		return nil, nil, err
	}

	fmt.Println("tracing overhead (traced run minus untraced run, same seed):")
	for _, name := range sortedNames(plainE2E) {
		if name == "setup_s" {
			continue
		}
		fmt.Printf("  %-22s %+12.5g %s\n", name, tracedE2E[name].Value-plainE2E[name].Value, plainE2E[name].Unit)
	}
	b.breakdown(ls, tracedE2E, b.outsideRun(res))
	for _, name := range sortedNames(ls.m) {
		if n, ok := ls.note[name]; ok {
			fmt.Printf("  note %s: %s\n", name, n)
		}
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), filepath.Join(b.work, "spans.ndjson"))
	return ls.m, res, nil
}

// fromLoad derives the per-layer metrics that the traced load pass and the
// daemon's own counters give.
func (b *bench) fromLoad(ls *layerSet, res *loadResult) {
	nom := res.rungs[0]
	win := res.win
	var lag, queue, run, evRead, evBytes, scrape []float64
	var tasks, busy, events, dropped, analyses, decisions float64
	views := map[string]*jobView{}
	done := 0
	for i := range nom.samples {
		s := &nom.samples[i]
		if !s.sent.IsZero() {
			lag = append(lag, s.lagMS())
		}
		if !b.good(s) {
			continue
		}
		v := s.view
		done++
		views[v.ID] = v
		queue = append(queue, v.StartedMS-v.CreatedMS)
		run = append(run, v.FinishedMS-v.StartedMS)
		tasks += float64(v.TasksRun)
		busy += v.BusyMS
		events += float64(v.Events)
		dropped += float64(v.EventsDropped)
		analyses += float64(v.Analyses)
		decisions += float64(v.Decisions)
	}
	lpS, lpJobs := 0.0, 0
	metricsBytes := 0
	for _, r := range nom.reads {
		switch r.kind {
		case "events":
			evRead = append(evRead, r.ms)
			evBytes = append(evBytes, float64(r.bytes))
		case "metrics":
			scrape = append(scrape, r.ms)
			metricsBytes = r.bytes
		case "timeline":
			if v, ok := views[r.job]; ok {
				lpS += lpSeconds(r.body, v.FinishedMS)
				lpJobs++
			}
		}
	}
	n := float64(done)
	ls.setTail("loadgen.lag_p99_ms", lag, "ms")
	ls.setTail("server.queue_wait_p99_ms", queue, "ms")
	ls.setTail("server.events_read_p99_ms", evRead, "ms")
	ls.set("server.events_bytes_per_job", median(evBytes), "bytes")
	if len(scrape) > 0 {
		ls.setTail("server.metrics_scrape_p99_ms", scrape, "ms")
		ls.set("server.metrics_bytes", float64(metricsBytes), "bytes")
	}
	ls.set("server.sheds", win.h1.sheds()-win.h0.sheds(), "count")
	ls.set("journal.appends_per_job", (win.h1.Journal["appends"]-win.h0.Journal["appends"])/n, "count")
	ls.set("journal.fsyncs_per_job", (win.h1.Journal["fsyncs"]-win.h0.Journal["fsyncs"])/n, "count")
	ls.set("journal.bytes_per_job", float64(win.jb1-win.jb0)/n, "bytes")
	ls.set("exec.tasks_per_job", tasks/n, "count")
	ls.set("exec.busy_ms_per_job", busy/n, "ms")
	ls.set("exec.run_p50_ms", median(run), "ms")
	ls.setTail("exec.run_p99_ms", run, "ms")
	ls.set("event.events_per_job", events/n, "count")
	ls.set("event.dropped_per_job", dropped/n, "count")
	ls.set("core.analyses_per_job", analyses/n, "count")
	ls.set("core.decisions_per_job", decisions/n, "count")
	ls.set("core.grant_changes_per_job", float64(win.grantChanges)/n, "count")
	if lpJobs > 0 {
		ls.set("core.lp_s_per_job", lpS/float64(lpJobs), "s")
	} else {
		ls.set("core.lp_s_per_job", 0, "s")
	}
	ls.set("remote.tasks_per_job", (win.m1["skelrund_cluster_node_tasks_total"]-win.m0["skelrund_cluster_node_tasks_total"])/n, "count")
	ls.set("remote.degraded_tasks", win.m1["skelrund_cluster_degraded_tasks_total"]-win.m0["skelrund_cluster_degraded_tasks_total"], "count")
	ls.set("remote.hedged_tasks", win.m1["skelrund_cluster_hedged_tasks_total"]-win.m0["skelrund_cluster_hedged_tasks_total"], "count")
	workerCPU := 0.0
	for i := 1; i < len(win.cpu0); i++ {
		workerCPU += win.cpu1[i] - win.cpu0[i]
	}
	ls.set("remote.worker_cpu_ms_per_job", workerCPU/n, "ms")
	gcs := (win.heap1.NumGC - win.heap0.NumGC) - (win.heap1.NumForcedGC - win.heap0.NumForcedGC)
	ls.set("runtime.gc_per_job", gcs/n, "count")
	ls.set("runtime.gc_cpu_fraction", win.heap1.GCCPUFraction, "ratio")
	ls.set("runtime.heap_inuse_mb_end", win.heap1.HeapInuse/(1<<20), "MiB")
}

// outsideRun is the p50 and p99 over the nominal rung's jobs of the time
// each spent outside its run: e2e minus finished−started.
func (b *bench) outsideRun(res *loadResult) map[string]float64 {
	var xs []float64
	for i := range res.rungs[0].samples {
		if s := &res.rungs[0].samples[i]; b.good(s) {
			xs = append(xs, s.e2eMS()-(s.view.FinishedMS-s.view.StartedMS))
		}
	}
	return map[string]float64{"p50": quantile(xs, 0.5), "p99": quantile(xs, 0.99)}
}

// lpSeconds integrates a job's LP samples from its NDJSON timeline, each
// held until the next sample or the job's finish.
func lpSeconds(body []byte, finishedMS float64) float64 {
	type rec struct {
		Type string  `json:"type"`
		TMS  float64 `json:"t_ms"`
		LP   int     `json:"lp"`
	}
	var pts []rec
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var r rec
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Type == "lp" {
			pts = append(pts, r)
		}
	}
	total := 0.0
	for i, p := range pts {
		end := finishedMS
		if i+1 < len(pts) {
			end = pts[i+1].TMS
		}
		if end > p.TMS {
			total += float64(p.LP) * (end - p.TMS) / 1000
		}
	}
	return total
}

// startWorkers starts the workload's worker count (two when it uses none)
// for the direct remote measurements.
func (b *bench) startWorkers(tag string) ([]*proc, error) {
	n := b.w.workers
	if n == 0 {
		n = 2
	}
	var out []*proc
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		addr, err := freeAddr()
		if err == nil {
			var p *proc
			p, err = startProc(fmt.Sprintf("skelworker-%d", i), filepath.Join(b.bin, "skelworker"), addr,
				filepath.Join(b.work, fmt.Sprintf("worker%d-%s.log", i, tag)), append([]string{"-addr", addr}, b.w.workerFlags...))
			if err == nil {
				out = append(out, p)
				err = waitHealthy(ctx, p, "http://"+addr+"/healthz", "")
			}
		}
		if err != nil {
			for _, p := range out {
				p.stop()
			}
			return nil, err
		}
	}
	return out, nil
}

// flagValue returns the value following name in flags ("" if absent).
func flagValue(flags []string, name string) string {
	for i := 0; i+1 < len(flags); i++ {
		if flags[i] == name {
			return flags[i+1]
		}
	}
	return ""
}

// timeUS runs f and returns its duration in microseconds, inside a span.
func timeUS(tr *tracer, name, job string, f func() error) (float64, error) {
	sp := tr.start(name, 0, job)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	sp.end("")
	return float64(d) / float64(time.Microsecond), err
}

// direct times each layer's public functions on the workload's own inputs,
// with the daemon stopped.
func (b *bench) direct(ctx context.Context, ls *layerSet, tr *tracer, res *loadResult, workers []*proc) error {
	r := b.w.rng(b.seed, "layers")
	reqs := make([]submitReq, directN)
	for i := range reqs {
		reqs[i] = b.w.draw(r)
	}
	fsync, err := journal.ParseFsync(flagValue(b.w.daemonFlags, "-fsync"))
	if err != nil {
		return err
	}
	budget := 2 * runtime.GOMAXPROCS(0) // skelrund's default
	if v := flagValue(b.w.daemonFlags, "-budget"); v != "" {
		if budget, err = strconv.Atoi(v); err != nil {
			return err
		}
	}

	if err := b.journalCosts(ls, tr, reqs, fsync); err != nil {
		return err
	}
	if err := planExecCosts(ls, tr, reqs); err != nil {
		return err
	}
	if err := b.arbiterCosts(ls, tr, budget, res.meanLive); err != nil {
		return err
	}
	if err := b.analysisCost(ls, tr, reqs[:40]); err != nil {
		return err
	}
	cl, err := remoteCosts(ls, tr, reqs[:100], workers)
	if err != nil {
		return err
	}
	defer cl.Close()
	return b.serverCosts(ctx, ls, tr, reqs, fsync, budget, cl)
}

// journalCosts times journal.Open over the fixture, and appends with the
// workload's fsync policy.
func (b *bench) journalCosts(ls *layerSet, tr *tracer, reqs []submitReq, fsync journal.FsyncPolicy) error {
	var opens []float64
	for i := 0; i < 3; i++ {
		dir := filepath.Join(b.work, "journal-open")
		if err := copyDir(b.fixture, dir); err != nil {
			return err
		}
		var jn *journal.Journal
		us, err := timeUS(tr, "journal.open", "", func() error {
			var err error
			jn, _, err = journal.Open(dir, journal.Options{Fsync: fsync})
			return err
		})
		if err != nil {
			return err
		}
		if err := jn.Close(); err != nil {
			return err
		}
		opens = append(opens, us/1e6)
	}
	ls.set("journal.open_s", median(opens), "s")
	jdir := filepath.Join(b.work, "journal-append")
	if err := os.RemoveAll(jdir); err != nil {
		return err
	}
	jn, _, err := journal.Open(jdir, journal.Options{Fsync: fsync})
	if err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < journalJobs; i++ {
		req := reqs[i%len(reqs)]
		id := fmt.Sprintf("job-%d", i+1)
		spec := journal.Spec{Skeleton: req.Skeleton, Params: req.Params, GoalMS: req.GoalMS, Tenant: req.Tenant}
		for _, f := range []func() error{
			func() error { return jn.Submit(id, spec) },
			func() error { return jn.Start(id) },
			func() error { return jn.Finish(id, journal.StateDone, "1", "", journal.FaultCounts{}) },
		} {
			us, err := timeUS(tr, "journal.append", id, f)
			if err != nil {
				jn.Close()
				return err
			}
			appends = append(appends, us)
		}
	}
	if err := jn.Close(); err != nil {
		return err
	}
	ls.set("journal.append_p50_us", median(appends), "us")
	ls.setTail("journal.append_p99_us", appends, "us")
	return nil
}

// planExecCosts times blueprint Build, plan.Compile + plan.Optimize of the
// runner's node, and Runner.Start with the option set skelrund gives a job.
// Each started job is closed at once: only Start is timed.
func planExecCosts(ls *layerSet, tr *tracer, reqs []submitReq) error {
	var builds, compiles []float64
	runners := make([]skandium.Runner, len(reqs))
	for i, req := range reqs {
		bp, ok := skandium.LookupBlueprint(req.Skeleton)
		if !ok {
			return fmt.Errorf("no blueprint %q", req.Skeleton)
		}
		us, err := timeUS(tr, "plan.build", "", func() error {
			var err error
			runners[i], err = bp.Build(req.Params)
			return err
		})
		if err != nil {
			return err
		}
		builds = append(builds, us)
		us, err = timeUS(tr, "plan.compile", "", func() error {
			p, err := plan.Compile(runners[i].Node())
			if err == nil {
				plan.Optimize(p)
			}
			return err
		})
		if err != nil {
			return err
		}
		compiles = append(compiles, us)
	}
	ls.set("plan.build_us", median(builds), "us")
	ls.set("plan.compile_us", median(compiles), "us")

	var starts []float64
	for i, req := range reqs {
		opts := []skandium.Option{
			skandium.WithLP(1), skandium.WithMaxLP(0), skandium.WithLPCap(1),
			skandium.WithClock(clock.System),
			skandium.WithGauge(func(time.Time, int, int) {}),
			skandium.WithListener(event.Func(func(e *event.Event) any { return e.Param })),
			skandium.WithPartialFailure(skandium.FailFast()),
		}
		if req.GoalMS > 0 {
			opts = append(opts, skandium.WithWCTGoal(time.Duration(req.GoalMS*float64(time.Millisecond))),
				skandium.WithAnalysisInterval(2*time.Millisecond), skandium.WithAnalysisTicker(5*time.Millisecond))
		}
		var h skandium.Handle
		us, _ := timeUS(tr, "exec.start", "", func() error {
			h = runners[i].Start(opts...)
			return nil
		})
		h.Close()
		starts = append(starts, us)
	}
	ls.set("exec.start_us", median(starts), "us")
	return nil
}

// remoteCosts times remote.Cluster.Run of the workload's jobs against the
// workers, and a one-shard run for the RPC round trip. It returns the
// cluster for the in-process server to route through.
func remoteCosts(ls *layerSet, tr *tracer, reqs []submitReq, workers []*proc) (*remote.Cluster, error) {
	var endpoints []string
	for _, w := range workers {
		endpoints = append(endpoints, w.addr)
	}
	cl, err := remote.New(remote.Config{Workers: endpoints})
	if err != nil {
		return nil, err
	}
	var runs, rpcs []float64
	for _, req := range reqs {
		us, err := timeUS(tr, "remote.run", "", func() error {
			_, err := cl.Run(req.Skeleton, req.Params)
			return err
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
		runs = append(runs, us/1000)
	}
	one := skandium.Params{"k": 1, "m": 1, "cell_ms": 0.001}
	for i := 0; i < 100; i++ {
		us, err := timeUS(tr, "remote.rpc", "", func() error {
			_, err := cl.Run("sleepgrid", one)
			return err
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
		rpcs = append(rpcs, us)
	}
	ls.set("remote.run_p50_ms", median(runs), "ms")
	ls.set("remote.rpc_p50_us", median(rpcs), "us")
	return cl, nil
}

// fakeMember is an arbiter member with a fixed demand.
type fakeMember struct{ d core.Demand }

func (m *fakeMember) Demand() core.Demand { return m.d }
func (m *fakeMember) Grant(int)           {}

// arbiterCosts times AdmitFor/Release and Rebalance on an arbiter holding
// the workload's mean number of live jobs. Goal workloads' members demand
// more than their share, as goal-fleet's do.
func (b *bench) arbiterCosts(ls *layerSet, tr *tracer, budget int, live float64) error {
	arb := core.NewArbiter(budget, nil)
	tenants := []string{"alpha", "beta", "gamma"}
	goals := b.w.draw(b.w.rng(b.seed, "arbiter")).GoalMS > 0
	members := int(live + 0.5)
	if members >= budget {
		members = budget - 1 // each admitted job holds at least one LP
	}
	for i := 0; i < members; i++ {
		m := &fakeMember{}
		if goals {
			m.d = core.Demand{Valid: true, Time: time.Now(), CurrentLP: 1, DesiredLP: 1 + i%4, OptimalLP: 4,
				Goal: 150 * time.Millisecond, Overshoot: time.Duration(i%5-2) * 10 * time.Millisecond}
		}
		if err := arb.AdmitFor(fmt.Sprintf("live-%d", i), tenants[i%3], m); err != nil {
			return err
		}
	}
	var admits, releases, rebalances []float64
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("probe-%d", i)
		us, err := timeUS(tr, "core.arbiter_admit", id, func() error {
			return arb.AdmitFor(id, tenants[i%3], &fakeMember{})
		})
		if err != nil {
			return err
		}
		admits = append(admits, us)
		us, _ = timeUS(tr, "core.arbiter_release", id, func() error {
			arb.Release(id)
			return nil
		})
		releases = append(releases, us)
		us, _ = timeUS(tr, "core.arbiter_rebalance", "", func() error {
			arb.Rebalance()
			return nil
		})
		rebalances = append(rebalances, us)
	}
	ls.set("core.arbiter_admit_us", median(admits), "us")
	ls.set("core.arbiter_release_us", median(releases), "us")
	ls.set("core.arbiter_rebalance_us", median(rebalances), "us")
	return nil
}

// lever is the controller's LP lever, recording only the level.
type lever struct{ lp int }

func (l *lever) LP() int     { return l.lp }
func (l *lever) SetLP(n int) { l.lp = n }

// analysisCost runs the workload's jobs in-process with a controller built
// from core's public constructors attached, and times an Analyze after
// every completed muscle, counting the calls that ran an analysis.
// Goal-less workloads use their reference goal.
func (b *bench) analysisCost(ls *layerSet, tr *tracer, reqs []submitReq) error {
	var costs []float64
	for i, req := range reqs {
		bp, _ := skandium.LookupBlueprint(req.Skeleton)
		rn, err := bp.Build(req.Params)
		if err != nil {
			return err
		}
		goal := req.GoalMS
		if goal == 0 {
			goal = b.w.refGoalMS
		}
		est := estimate.NewRegistry(nil)
		tracker := statemachine.NewTracker(est)
		ctl := core.NewController(core.Config{WCTGoal: time.Duration(goal * float64(time.Millisecond))},
			rn.Node(), &lever{lp: 1}, est, tracker, clock.System)
		ctl.SetStart(time.Now())
		job := fmt.Sprintf("analysis-%d", i)
		var mu sync.Mutex // listeners run on the pool's worker goroutines
		probe := event.Func(func(e *event.Event) any {
			if e.When == event.After && e.Err == nil {
				mu.Lock()
				defer mu.Unlock()
				before := ctl.Analyses()
				us, _ := timeUS(tr, "core.analysis", job, func() error {
					ctl.Analyze(e.Time)
					return nil
				})
				if ctl.Analyses() > before { // calls the estimate gate turned away did no analysis
					costs = append(costs, us)
				}
			}
			return e.Param
		})
		h := rn.Start(skandium.WithLP(2), skandium.WithListener(tracker.Listener()), skandium.WithListener(probe))
		_, err = h.Result()
		h.Close()
		if err != nil {
			return err
		}
	}
	if len(costs) == 0 {
		ls.set("core.analysis_us", 0, "us")
		ls.note["core.analysis_us"] = "no analysis passed the estimate gate"
		return nil
	}
	ls.set("core.analysis_us", median(costs), "us")
	return nil
}

// serverCosts submits the workload's jobs to an in-process server, first
// by calling Submit directly and then by POSTing the same specs over
// loopback HTTP; the difference of the medians is the HTTP layer's cost.
func (b *bench) serverCosts(ctx context.Context, ls *layerSet, tr *tracer, reqs []submitReq, fsync journal.FsyncPolicy, budget int, cl *remote.Cluster) error {
	jdir := filepath.Join(b.work, "journal-inproc")
	if err := os.RemoveAll(jdir); err != nil {
		return err
	}
	jn, _, err := journal.Open(jdir, journal.Options{Fsync: fsync})
	if err != nil {
		return err
	}
	defer jn.Close()
	cfg := server.Config{Budget: budget, Journal: jn}
	if t := flagValue(b.w.daemonFlags, "-tenants"); t != "" {
		cfg.Tenants = map[string]int{}
		for _, part := range strings.Split(t, ",") {
			name, w, _ := strings.Cut(part, ":")
			n, err := strconv.Atoi(w)
			if err != nil {
				return err
			}
			cfg.Tenants[name] = n
		}
	}
	if b.w.workers > 0 {
		cfg.Cluster = cl
	}
	srv := server.New(cfg)
	defer srv.Close()

	// Space submissions as the workload's nominal rate does, so the
	// in-process server sees the same number of live jobs.
	gap := time.Duration(float64(time.Second) / b.w.ladder[0].rate)
	var calls []float64
	for _, req := range reqs {
		spec := server.SubmitSpec{Skeleton: req.Skeleton, Params: req.Params,
			Goal: time.Duration(req.GoalMS * float64(time.Millisecond)), Tenant: req.Tenant}
		t0 := time.Now()
		us, err := timeUS(tr, "server.submit_call", "", func() error {
			_, err := srv.Submit(spec)
			return err
		})
		if err != nil {
			return err
		}
		calls = append(calls, us)
		time.Sleep(gap - time.Since(t0))
	}
	ls.set("server.submit_call_p50_us", median(calls), "us")
	ls.setTail("server.submit_call_p99_us", calls, "us")

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpd := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpd.Serve(l) }()
	c := newClient(l.Addr().String(), tr)
	var posts []float64
	for _, req := range reqs {
		t0 := time.Now()
		s := &sample{arrival: arrival{req: req}, dueAt: t0}
		c.submit(ctx, s)
		if s.err != nil {
			c.close()
			httpd.Close()
			return s.err
		}
		posts = append(posts, float64(s.acked.Sub(s.sent))/float64(time.Microsecond))
		time.Sleep(gap - time.Since(t0))
	}
	c.close()
	dctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	derr := srv.Drain(dctx)
	httpd.Close()
	<-served
	if derr != nil {
		return fmt.Errorf("in-process server drain: %w", derr)
	}
	ls.set("server.http_overhead_us", median(posts)-median(calls), "us")
	return nil
}

// breakdown sets the layer costs on a job's path against the end-to-end
// figures of the same (traced) pass; what they leave unexplained is the
// gap.
func (b *bench) breakdown(ls *layerSet, e2e map[string]metric, outside map[string]float64) {
	v := func(n string) float64 { return ls.m[n].Value }
	fmt.Println("breakdown, submit path (p50, us):")
	inside := v("plan.build_us") + v("plan.compile_us") + 2*v("journal.append_p50_us") +
		v("core.arbiter_admit_us") + v("exec.start_us")
	rows := []struct {
		name string
		us   float64
	}{
		{"plan.build_us", v("plan.build_us")},
		{"plan.compile_us", v("plan.compile_us")},
		{"journal.append_p50_us x2 (submit, start)", 2 * v("journal.append_p50_us")},
		{"core.arbiter_admit_us", v("core.arbiter_admit_us")},
		{"exec.start_us", v("exec.start_us")},
		{"server self (submit_call_p50 - above)", v("server.submit_call_p50_us") - inside},
		{"server.http_overhead_us", v("server.http_overhead_us")},
	}
	sum := 0.0
	for _, r := range rows {
		fmt.Printf("  %-44s %10.1f\n", r.name, r.us)
		sum += r.us
	}
	submit := 1000 * e2e["submit_p50_ms"].Value
	fmt.Printf("  %-44s %10.1f\n  %-44s %10.1f\n  %-44s %10.1f\n",
		"sum of layers", sum, "submit_p50_ms (as us)", submit, "unexplained (loadgen, network, queueing)", submit-sum)
	fmt.Println("breakdown, run path (ms):")
	for _, q := range []string{"p50", "p99"} {
		fmt.Printf("  e2e_%s_ms %10.3f   exec.run_%s_ms %10.3f   per-job e2e minus run (submit, queue wait, bookkeeping) %s %10.3f\n",
			q, e2e["e2e_"+q+"_ms"].Value, q, v("exec.run_"+q+"_ms"), q, outside[q])
	}
}

func sortedNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
